#include "src/server/shard.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/analysis/carry_lint.h"
#include "src/common/file_io.h"

namespace karousos {

namespace {

constexpr uint8_t kShardBoundaryFormatVersion = 2;

// The shard owning every request id that appears in the trace or the advice.
// Tag groups are atomic: each rid maps with its group lead, so causally
// related requests always land together. Rid 0 (the init pseudo-request) is
// shard 0's.
std::map<RequestId, uint32_t> AssignShards(const Trace& trace, const Advice& advice,
                                           uint32_t shards, ShardMode mode) {
  // Group leads: every tagged rid maps with the minimum rid of its tag group,
  // untagged rids lead themselves. Causally related requests (Emit chains)
  // share a tag, so group-atomic assignment keeps every re-execution group in
  // one shard.
  std::map<uint64_t, RequestId> tag_lead;
  for (const auto& [rid, tag] : advice.tags) {
    auto [it, inserted] = tag_lead.emplace(tag, rid);
    if (!inserted && rid < it->second) it->second = rid;
  }
  const auto lead_of = [&](RequestId rid) -> RequestId {
    auto t = advice.tags.find(rid);
    if (t == advice.tags.end()) return rid;
    return tag_lead.find(t->second)->second;
  };

  // Assignment covers every rid the run mentions: trace arrivals plus every
  // advice owner coordinate (mutated advice may name rids outside the trace;
  // they still need a deterministic owner so exactly one shard's lint
  // reports them, as the unsharded lint would once).
  std::set<RequestId> universe;
  for (const TraceEvent& ev : trace.events) universe.insert(ev.rid);
  for (const auto& [rid, tag] : advice.tags) universe.insert(rid);
  for (const auto& [rid, log] : advice.handler_logs) universe.insert(rid);
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) universe.insert(op.rid);
  }
  for (const auto& [txn, log] : advice.tx_logs) universe.insert(txn.rid);
  for (const auto& [rid, emitter] : advice.response_emitted_by) universe.insert(rid);
  for (const auto& [key, count] : advice.opcounts) universe.insert(key.first);
  for (const auto& [op, record] : advice.nondet) universe.insert(op.rid);
  for (const TxOpRef& ref : advice.write_order) universe.insert(ref.rid);

  // Range mode: sorted distinct leads split into contiguous, equally-counted
  // chunks — the key-range alternative to the stable request hash.
  std::map<RequestId, uint32_t> lead_shard;
  if (mode == ShardMode::kRange) {
    std::set<RequestId> leads;
    for (RequestId rid : universe) {
      if (rid != 0) leads.insert(lead_of(rid));
    }
    const uint64_t n = leads.size();
    uint64_t i = 0;
    for (RequestId lead : leads) {
      lead_shard[lead] = n == 0 ? 0 : static_cast<uint32_t>((i * shards) / n);
      ++i;
    }
  }

  std::map<RequestId, uint32_t> out;
  for (RequestId rid : universe) {
    const RequestId lead = rid == 0 ? 0 : lead_of(rid);
    if (lead == 0) {
      out[rid] = 0;  // The init pseudo-request (and its group) is shard 0's.
    } else if (mode == ShardMode::kHash) {
      out[rid] = static_cast<uint32_t>(SplitMix64(lead) % shards);
    } else {
      out[rid] = lead_shard[lead];
    }
  }
  return out;
}

}  // namespace

const char* ShardModeName(ShardMode mode) {
  switch (mode) {
    case ShardMode::kHash:
      return "hash";
    case ShardMode::kRange:
      return "range";
  }
  return "unknown";
}

std::optional<ShardMode> ParseShardMode(const std::string& name) {
  if (name == "hash") return ShardMode::kHash;
  if (name == "range") return ShardMode::kRange;
  return std::nullopt;
}

void ShardBoundary::Serialize(ByteWriter* out) const {
  out->WriteByte(kShardBoundaryFormatVersion);
  out->WriteVarint(shard);
  out->WriteVarint(count);
  out->WriteByte(static_cast<uint8_t>(mode));
  out->WriteVarint(epoch_requests);
  out->WriteVarint(epochs);
  out->WriteVarint(rids.size());
  for (RequestId rid : rids) out->WriteFixed64(rid);
  out->WriteVarint(write_order_positions.size());
  for (uint64_t pos : write_order_positions) out->WriteVarint(pos);
  out->WriteVarint(write_order_total);
  out->WriteVarint(export_tx_refs.size());
  for (const TxOpRef& ref : export_tx_refs) SerializeTxOpRef(ref, out);
  out->WriteVarint(export_var_refs.size());
  for (const auto& [vid, op] : export_var_refs) {
    out->WriteFixed64(vid);
    SerializeOpRef(op, out);
  }
}

std::optional<ShardBoundary> ShardBoundary::Deserialize(ByteReader* in) {
  StateReader r(in);
  if (r.B() != kShardBoundaryFormatVersion) return std::nullopt;
  ShardBoundary b;
  b.shard = static_cast<uint32_t>(r.V());
  b.count = static_cast<uint32_t>(r.V());
  b.mode = static_cast<ShardMode>(r.Enum(static_cast<uint8_t>(ShardMode::kRange)));
  b.epoch_requests = r.V();
  b.epochs = r.V();
  r.List(&b.rids, 8, [&r] { return r.F64(); });
  r.List(&b.write_order_positions, 1, [&r] { return r.V(); });
  b.write_order_total = r.V();
  r.List(&b.export_tx_refs, kMinTxOpRefBytes, [&r] { return r.Tx(); });
  r.List(&b.export_var_refs, 8 + kMinOpRefBytes, [&r] {
    VarId vid = r.F64();
    return std::make_pair(vid, r.Op());
  });
  if (!r.ok()) return std::nullopt;
  return b;
}

std::vector<ShardFile> ShardRun(const Trace& trace, const Advice& advice,
                                uint64_t epoch_requests, const ShardSpec& spec) {
  const uint32_t shards = std::max<uint32_t>(spec.count, 1);
  const std::map<RequestId, uint32_t> assignment =
      AssignShards(trace, advice, shards, spec.mode);
  const auto shard_of = [&](RequestId rid) -> uint32_t {
    auto it = assignment.find(rid);
    return it == assignment.end() ? 0 : it->second;
  };

  // Filter the advice by owning shard. The write order additionally records
  // each kept entry's global position — filtering preserves relative order,
  // so per-shard positions are strictly increasing and the merge re-stitches
  // the total order by position.
  std::vector<Advice> parts(shards);
  std::vector<std::vector<uint64_t>> positions(shards);
  for (const auto& [rid, tag] : advice.tags) {
    Advice& t = parts[shard_of(rid)];
    t.tags.emplace_hint(t.tags.end(), rid, tag);
  }
  for (const auto& [rid, log] : advice.handler_logs) {
    Advice& t = parts[shard_of(rid)];
    t.handler_logs.emplace_hint(t.handler_logs.end(), rid, log);
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      VarLog& target = parts[shard_of(op.rid)].var_logs[vid];
      target.emplace_hint(target.end(), op, entry);
    }
  }
  for (const auto& [txn, log] : advice.tx_logs) {
    Advice& t = parts[shard_of(txn.rid)];
    t.tx_logs.emplace_hint(t.tx_logs.end(), txn, log);
  }
  for (const auto& [rid, emitter] : advice.response_emitted_by) {
    Advice& t = parts[shard_of(rid)];
    t.response_emitted_by.emplace_hint(t.response_emitted_by.end(), rid, emitter);
  }
  for (const auto& [key, count] : advice.opcounts) {
    Advice& t = parts[shard_of(key.first)];
    t.opcounts.emplace_hint(t.opcounts.end(), key, count);
  }
  for (const auto& [op, record] : advice.nondet) {
    Advice& t = parts[shard_of(op.rid)];
    t.nondet.emplace_hint(t.nondet.end(), op, record);
  }
  for (size_t pos = 0; pos < advice.write_order.size(); ++pos) {
    const uint32_t s = shard_of(advice.write_order[pos].rid);
    parts[s].write_order.push_back(advice.write_order[pos]);
    positions[s].push_back(pos);
  }

  std::vector<EpochSlices> slices =
      SlicePartitions(trace, advice, std::move(parts), shard_of, epoch_requests);

  // Export obligations: an import whose target another shard owns charges
  // that shard with describing its real content there, so the merge can
  // confirm the allegation against the owner.
  std::vector<std::set<TxOpRef>> tx_obligations(shards);
  std::vector<std::set<std::pair<VarId, OpRef>>> var_obligations(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    for (const EpochSegment& seg : slices[s].segments) {
      for (const ContinuityImports::TxOpImport& imp : seg.imports.tx_ops) {
        const uint32_t owner = shard_of(imp.ref.rid);
        if (owner != s) tx_obligations[owner].insert(imp.ref);
      }
      for (const ContinuityImports::VarImport& imp : seg.imports.var_entries) {
        const uint32_t owner = shard_of(imp.op.rid);
        if (owner != s) var_obligations[owner].emplace(imp.vid, imp.op);
      }
    }
  }

  std::set<RequestId> trace_rids;
  for (const TraceEvent& ev : trace.events) trace_rids.insert(ev.rid);
  std::vector<ShardFile> out(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    ShardFile& sf = out[s];
    sf.slices = std::move(slices[s]);
    ShardBoundary& b = sf.boundary;
    b.shard = s;
    b.count = shards;
    b.mode = spec.mode;
    b.epoch_requests = epoch_requests;
    b.epochs = sf.slices.segments.size();
    for (RequestId rid : trace_rids) {
      if (shard_of(rid) == s) b.rids.push_back(rid);
    }
    b.write_order_positions = std::move(positions[s]);
    b.write_order_total = advice.write_order.size();
    b.export_tx_refs.assign(tx_obligations[s].begin(), tx_obligations[s].end());
    b.export_var_refs.assign(var_obligations[s].begin(), var_obligations[s].end());
  }
  return out;
}

std::vector<uint8_t> EncodeShardFile(const ShardFile& shard, const KsegCompression& c) {
  EpochFrameWriter writer(c);
  ByteWriter boundary;
  shard.boundary.Serialize(&boundary);
  // The boundary frame stays raw: the merge reads manifests before anything
  // else and must not depend on payload codecs.
  writer.AppendRaw(SegmentKind::kShardBoundary, shard.boundary.shard, boundary.bytes());
  for (const EpochSegment& seg : shard.slices.segments) {
    writer.AppendTrace(seg);
    writer.AppendAdvice(seg);
  }
  return writer.Take();
}

namespace {

std::string FrameLoc(const SegmentRecord& rec) {
  return "shard[offset " + std::to_string(rec.offset) + "]";
}

// Turns the last finding into the result's verdict.
ShardLoadResult& Rejected(ShardLoadResult* out) {
  out->ok = false;
  out->rule = out->diagnostics.back().rule;
  out->reason = "segment stream: " + out->diagnostics.back().Format();
  return *out;
}

ShardLoadResult& Fail(ShardLoadResult* out, const char* rule, std::string location,
                      std::string message) {
  out->diagnostics.push_back(
      LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)});
  return Rejected(out);
}

// Boundary validation (KAR-SEG-011). The boundary states only what the
// content cannot: the partition, the covered rids, the write order's global
// positions and the export obligations. Each must be well formed and
// consistent with what the file carries, so a clean shard file's boundary
// is trustworthy input for the merge's cross-shard checks.
bool ValidateBoundary(ShardLoadResult* out) {
  const ShardBoundary& b = out->file.boundary;
  const EpochSlices& slices = out->file.slices;
  const auto fail = [&](std::string message) {
    Fail(out, kKarSeg011, "boundary[shard " + std::to_string(b.shard) + "]",
         std::move(message));
    return false;
  };
  if (b.count == 0) return fail("shard count is zero");
  if (b.shard >= b.count) {
    return fail("shard index " + std::to_string(b.shard) + " out of range for count " +
                std::to_string(b.count));
  }
  if (b.epochs != slices.segments.size()) {
    return fail("boundary declares " + std::to_string(b.epochs) + " epochs but the file has " +
                std::to_string(slices.segments.size()));
  }
  for (size_t i = 1; i < b.rids.size(); ++i) {
    if (b.rids[i] <= b.rids[i - 1]) {
      return fail("covered rid list is not strictly ascending at index " + std::to_string(i));
    }
  }

  // The rid list must name exactly the trace rids this shard's advice can
  // own: a subset of the replicated trace, covering every in-trace advice
  // owner in the file.
  std::set<RequestId> trace_rids;
  for (const EpochSegment& seg : slices.segments) {
    for (const TraceEvent& ev : seg.window) trace_rids.insert(ev.rid);
  }
  std::set<RequestId> covered(b.rids.begin(), b.rids.end());
  for (RequestId rid : b.rids) {
    if (trace_rids.count(rid) == 0) {
      return fail("covered rid " + std::to_string(rid) + " does not appear in the trace");
    }
  }
  const auto owned = [&](RequestId rid) {
    return rid == 0 || trace_rids.count(rid) == 0 || covered.count(rid) != 0;
  };
  const auto unowned = [&](RequestId rid) {
    return fail("advice content for rid " + std::to_string(rid) +
                " is not in the covered rid set");
  };
  size_t write_order_entries = 0;
  for (const EpochSegment& seg : slices.segments) {
    const Advice& a = seg.advice;
    for (const auto& [rid, tag] : a.tags) {
      if (!owned(rid)) return unowned(rid);
    }
    for (const auto& [rid, log] : a.handler_logs) {
      if (!owned(rid)) return unowned(rid);
    }
    for (const auto& [vid, log] : a.var_logs) {
      for (const auto& [op, entry] : log) {
        if (!owned(op.rid)) return unowned(op.rid);
      }
    }
    for (const auto& [txn, log] : a.tx_logs) {
      if (!owned(txn.rid)) return unowned(txn.rid);
    }
    write_order_entries += a.write_order.size();
  }

  if (b.write_order_positions.size() != write_order_entries) {
    return fail("boundary records " + std::to_string(b.write_order_positions.size()) +
                " write-order positions but the file carries " +
                std::to_string(write_order_entries) + " entries");
  }
  for (size_t i = 0; i < b.write_order_positions.size(); ++i) {
    if (b.write_order_positions[i] >= b.write_order_total) {
      return fail("write-order position " + std::to_string(b.write_order_positions[i]) +
                  " exceeds the alleged total " + std::to_string(b.write_order_total));
    }
    if (i > 0 && b.write_order_positions[i] <= b.write_order_positions[i - 1]) {
      return fail("write-order positions are not strictly increasing at index " +
                  std::to_string(i));
    }
  }

  // Export obligations must be canonical (sorted, unique) and name
  // coordinates this shard can actually describe — requests it owns. What
  // the content at each obligation really is stays the audit's business.
  const auto obligations_owned = [&](const auto& refs, const auto& op_of) {
    for (size_t i = 0; i < refs.size(); ++i) {
      if (i > 0 && !(refs[i - 1] < refs[i])) {
        return fail("export obligations are not strictly ascending at index " +
                    std::to_string(i));
      }
      if (!owned(op_of(refs[i]).rid)) {
        return fail("export obligation " + op_of(refs[i]).ToString() +
                    " is not owned by this shard");
      }
    }
    return true;
  };
  return obligations_owned(b.export_tx_refs, [](const TxOpRef& ref) { return ref; }) &&
         obligations_owned(b.export_var_refs, [](const auto& key) { return key.second; });
}

// Walks the single-file layout (boundary, then one trace + advice frame pair
// per epoch), decodes every payload, then validates the boundary.
ShardLoadResult Load(std::unique_ptr<SegmentReader> reader, const std::string& open_error) {
  ShardLoadResult out;
  if (reader == nullptr) {
    return Fail(&out, kKarSeg001, "shard", "unreadable segment container: " + open_error);
  }

  SegmentRecord rec;
  if (!reader->Next(&rec)) {
    if (!reader->ok()) {
      return Fail(&out, kKarSeg001, "shard", "unreadable segment container: " + reader->error());
    }
    return Fail(&out, kKarSeg011, "shard", "shard file has no boundary frame");
  }
  if (rec.kind != SegmentKind::kShardBoundary) {
    return Fail(&out, kKarSeg011, FrameLoc(rec),
                std::string("shard file must open with a shard-boundary frame, found ") +
                    SegmentKindName(rec.kind));
  }
  if (rec.flags != 0) {
    return Fail(&out, kKarSeg011, FrameLoc(rec), "shard-boundary frame must be raw (flags 0)");
  }
  {
    ByteReader in(rec.payload);
    auto boundary = ShardBoundary::Deserialize(&in);
    if (!boundary || !in.AtEnd()) {
      return Fail(&out, kKarSeg011, FrameLoc(rec), "shard-boundary payload is malformed");
    }
    out.file.boundary = std::move(*boundary);
  }
  const ShardBoundary& b = out.file.boundary;
  out.file.slices.epoch_requests = b.epoch_requests;

  // Epoch frame pairs: every frame rule is the shared epoch-frame step's.
  for (uint64_t epoch = 0;; ++epoch) {
    EpochSegment seg;
    if (!reader->Next(&rec)) {
      if (!reader->ok()) {
        return Fail(&out, kKarSeg001, "shard", "unreadable segment container: " + reader->error());
      }
      break;
    }
    if (!DecodeEpochFrame(rec, SegmentKind::kTrace, epoch, "shard", &seg, &out.diagnostics)) {
      return Rejected(&out);
    }
    if (!reader->Next(&rec)) {
      if (!reader->ok()) {
        return Fail(&out, kKarSeg001, "shard", "unreadable segment container: " + reader->error());
      }
      return Fail(&out, kKarSeg011, "shard",
                  "epoch " + std::to_string(epoch) + " has a trace frame but no advice frame");
    }
    if (!DecodeEpochFrame(rec, SegmentKind::kAdvice, epoch, "shard", &seg, &out.diagnostics)) {
      return Rejected(&out);
    }
    out.file.slices.segments.push_back(std::move(seg));
  }

  if (!ValidateBoundary(&out)) return out;
  out.ok = true;
  return out;
}

}  // namespace

ShardLoadResult LoadShardFile(const std::string& path) {
  std::optional<FileBytes> bytes = ReadFileBytes(path);
  if (!bytes) return Load(nullptr, "cannot open segment file: " + path);
  return LoadShardBytes(*bytes);
}

ShardLoadResult LoadShardBytes(std::span<const uint8_t> bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  return Load(std::move(reader), error);
}

}  // namespace karousos
