#include "src/server/shard.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/analysis/carry_lint.h"
#include "src/common/file_io.h"

namespace karousos {

namespace {

constexpr uint8_t kShardBoundaryFormatVersion = 1;
constexpr uint64_t kDigestSeed = 0x6b736567;  // "kseg"

uint64_t Mix(uint64_t d, uint64_t x) { return HashMix64(d, SplitMix64(x)); }

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

std::map<RequestId, uint32_t> AssignShards(const Trace& trace, const Advice& advice,
                                           const ShardSpec& spec) {
  const uint32_t shards = spec.count == 0 ? 1 : spec.count;

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
  if (spec.mode == ShardMode::kRange) {
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
    } else if (spec.mode == ShardMode::kHash) {
      out[rid] = static_cast<uint32_t>(SplitMix64(lead) % shards);
    } else {
      out[rid] = lead_shard[lead];
    }
  }
  return out;
}

uint64_t DigestRids(const std::vector<RequestId>& rids) {
  uint64_t d = kDigestSeed;
  for (RequestId rid : rids) d = Mix(d, rid);
  return Mix(d, rids.size());
}

uint64_t DigestTraceWindows(const EpochSlices& slices) {
  uint64_t d = kDigestSeed;
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    payload.Clear();
    SerializeTraceEvents(seg.window, &payload);
    d = Mix(d, (static_cast<uint64_t>(Crc32(payload.bytes())) << 32) | payload.size());
  }
  return Mix(d, slices.segments.size());
}

uint64_t DigestBalance(const EpochSlices& slices) {
  std::map<RequestId, std::pair<uint64_t, uint64_t>> counts;  // rid -> (arrivals, responses)
  for (const EpochSegment& seg : slices.segments) {
    for (const TraceEvent& ev : seg.window) {
      auto& c = counts[ev.rid];
      (ev.kind == TraceEvent::Kind::kRequest ? c.first : c.second) += 1;
    }
  }
  uint64_t d = kDigestSeed;
  for (const auto& [rid, c] : counts) {
    d = Mix(d, rid);
    d = Mix(d, c.first);
    d = Mix(d, c.second);
  }
  return Mix(d, counts.size());
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
  out->WriteFixed64(rid_digest);
  out->WriteFixed64(trace_digest);
  out->WriteFixed64(balance_digest);
  out->WriteVarint(write_order_positions.size());
  for (uint64_t pos : write_order_positions) out->WriteVarint(pos);
  out->WriteVarint(write_order_total);
  out->WriteVarint(total_tags);
  out->WriteVarint(total_handler_entries);
  out->WriteVarint(total_var_entries);
  out->WriteVarint(total_tx_ops);
  out->WriteVarint(total_opcount_sum);
  out->WriteVarint(chains.size());
  for (const Chain& c : chains) {
    out->WriteFixed64(c.vid);
    SerializeOpRef(c.head, out);
    SerializeOpRef(c.tail, out);
    out->WriteVarint(c.writes);
  }
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
  b.rid_digest = r.F64();
  b.trace_digest = r.F64();
  b.balance_digest = r.F64();
  r.List(&b.write_order_positions, 1, [&r] { return r.V(); });
  b.write_order_total = r.V();
  b.total_tags = r.V();
  b.total_handler_entries = r.V();
  b.total_var_entries = r.V();
  b.total_tx_ops = r.V();
  b.total_opcount_sum = r.V();
  // vid (8), head and tail, and the write count (1).
  r.List(&b.chains, 9 + 2 * kMinOpRefBytes, [&r] {
    Chain c;
    c.vid = r.F64();
    c.head = r.Op();
    c.tail = r.Op();
    c.writes = r.V();
    return c;
  });
  r.List(&b.export_tx_refs, kMinTxOpRefBytes, [&r] { return r.Tx(); });
  r.List(&b.export_var_refs, 8 + kMinOpRefBytes, [&r] {
    VarId vid = r.F64();
    return std::make_pair(vid, r.Op());
  });
  if (!r.ok()) return std::nullopt;
  return b;
}

namespace {

// Recomputes the content-derived boundary fields (totals + write chains) from
// a shard's slices. Used by the slicer to fill them and by the loader to
// validate the manifest against what the file actually carries.
void SummarizeContent(const EpochSlices& slices, ShardBoundary* b) {
  b->total_tags = 0;
  b->total_handler_entries = 0;
  b->total_var_entries = 0;
  b->total_tx_ops = 0;
  b->total_opcount_sum = 0;
  b->chains.clear();
  std::map<VarId, ShardBoundary::Chain> chains;
  for (const EpochSegment& seg : slices.segments) {
    const Advice& a = seg.advice;
    b->total_tags += a.tags.size();
    for (const auto& [rid, log] : a.handler_logs) b->total_handler_entries += log.size();
    for (const auto& [vid, log] : a.var_logs) {
      b->total_var_entries += log.size();
      for (const auto& [op, entry] : log) {
        if (entry.kind != VarLogEntry::Kind::kWrite) continue;
        auto [it, inserted] = chains.emplace(vid, ShardBoundary::Chain{vid, op, op, 1});
        if (!inserted) {
          if (op < it->second.head) it->second.head = op;
          if (it->second.tail < op) it->second.tail = op;
          it->second.writes += 1;
        }
      }
    }
    for (const auto& [txn, log] : a.tx_logs) b->total_tx_ops += log.size();
    for (const auto& [key, count] : a.opcounts) b->total_opcount_sum += count;
  }
  b->chains.reserve(chains.size());
  for (const auto& [vid, c] : chains) b->chains.push_back(c);
}

}  // namespace

std::vector<ShardFile> ShardRun(const Trace& trace, const Advice& advice,
                                uint64_t epoch_requests, const ShardSpec& spec) {
  ShardSpec norm = spec;
  if (norm.count == 0) norm.count = 1;
  const uint32_t shards = norm.count;
  const std::map<RequestId, uint32_t> assignment = AssignShards(trace, advice, norm);
  const auto shard_of = [&](RequestId rid) -> uint32_t {
    auto it = assignment.find(rid);
    return it == assignment.end() ? 0 : it->second;
  };

  // Epoch math, mirroring SliceRunOwned: the trace fixes the epoch count and
  // out-of-trace advice rids clamp into the final epoch.
  std::set<RequestId> trace_rids;
  for (const TraceEvent& ev : trace.events) trace_rids.insert(ev.rid);
  uint64_t max_epoch = 0;
  for (RequestId rid : trace_rids) {
    max_epoch = std::max(max_epoch, EpochOfRid(rid, epoch_requests));
  }
  const auto clamp_epoch = [&](RequestId rid) {
    return std::min(EpochOfRid(rid, epoch_requests), max_epoch);
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

  // Shard-aware continuity imports, one pass over the full advice: a
  // reference needs an allegation when its target is in a later epoch (the
  // epoch rule) OR owned by another shard (never locally confirmable). The
  // imports are recomputed against the *full* advice — the filtered copies
  // would misdescribe out-of-shard targets as absent — and deduplicated in
  // sorted order, like the epoch slicer, so shard files are deterministic
  // byte-for-byte. The same pass records the reverse index: every cross-shard
  // target charges its owning shard with an export obligation, so the merge
  // can confirm the allegation against the owner's real content.
  const size_t epochs_total = static_cast<size_t>(max_epoch) + 1;
  std::vector<std::vector<std::map<TxOpRef, ContinuityImports::TxOpImport>>> tx_imports(
      shards, std::vector<std::map<TxOpRef, ContinuityImports::TxOpImport>>(epochs_total));
  std::vector<std::vector<std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport>>>
      var_imports(shards,
                  std::vector<std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport>>(
                      epochs_total));
  std::vector<std::set<TxOpRef>> tx_obligations(shards);
  std::vector<std::set<std::pair<VarId, OpRef>>> var_obligations(shards);
  for (const auto& [txn, log] : advice.tx_logs) {
    const uint32_t s = shard_of(txn.rid);
    const size_t e = static_cast<size_t>(clamp_epoch(txn.rid));
    for (const TxOperation& op : log) {
      if (op.type != TxOpType::kGet || op.get_from.IsNil()) continue;
      const uint32_t owner = shard_of(op.get_from.rid);
      if (clamp_epoch(op.get_from.rid) <= e && owner == s) continue;
      tx_imports[s][e].emplace(op.get_from, DescribeTxOp(advice, op.get_from));
      if (owner != s) tx_obligations[owner].insert(op.get_from);
    }
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      if (entry.prec.IsNil()) continue;
      const uint32_t s = shard_of(op.rid);
      const size_t e = static_cast<size_t>(clamp_epoch(op.rid));
      const uint32_t owner = shard_of(entry.prec.rid);
      if (clamp_epoch(entry.prec.rid) <= e && owner == s) continue;
      var_imports[s][e].emplace(std::make_pair(vid, entry.prec),
                                DescribeVarEntry(advice, vid, entry.prec));
      if (owner != s) var_obligations[owner].insert({vid, entry.prec});
    }
  }

  std::vector<ShardFile> out(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    ShardFile& sf = out[s];
    // The epoch slicer does the window cuts and per-epoch advice slicing.
    sf.slices = SliceRunOwned(trace, std::move(parts[s]), epoch_requests);
    const size_t epochs = sf.slices.segments.size();
    for (size_t e = 0; e < epochs && e < epochs_total; ++e) {
      EpochSegment& seg = sf.slices.segments[e];
      seg.imports = ContinuityImports{};
      for (auto& [ref, imp] : tx_imports[s][e]) seg.imports.tx_ops.push_back(std::move(imp));
      for (auto& [key, imp] : var_imports[s][e]) {
        seg.imports.var_entries.push_back(std::move(imp));
      }
    }

    ShardBoundary& b = sf.boundary;
    b.shard = s;
    b.count = shards;
    b.mode = norm.mode;
    b.epoch_requests = epoch_requests;
    b.epochs = epochs;
    for (RequestId rid : trace_rids) {
      if (shard_of(rid) == s) b.rids.push_back(rid);
    }
    b.rid_digest = DigestRids(b.rids);
    b.trace_digest = DigestTraceWindows(sf.slices);
    b.balance_digest = DigestBalance(sf.slices);
    b.write_order_positions = std::move(positions[s]);
    b.write_order_total = advice.write_order.size();
    b.export_tx_refs.assign(tx_obligations[s].begin(), tx_obligations[s].end());
    b.export_var_refs.assign(var_obligations[s].begin(), var_obligations[s].end());
    SummarizeContent(sf.slices, &b);
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

// Loader core. Walks the single-file layout (boundary, then one trace +
// advice frame pair per epoch), decodes every payload, then validates the
// boundary manifest against the decoded content.
class ShardFileLoader {
 public:
  ShardLoadResult Load(std::unique_ptr<SegmentReader> reader, const std::string& open_error) {
    ShardLoadResult out;
    const auto fail = [&out](const char* rule, std::string location,
                             std::string message) -> ShardLoadResult& {
      Fail(&out, rule, std::move(location), std::move(message));
      return out;
    };
    if (reader == nullptr) {
      return fail(kKarSeg001, "shard", "unreadable segment container: " + open_error);
    }

    SegmentRecord rec;
    bool have = reader->Next(&rec);
    if (!have) {
      if (!reader->ok()) {
        return fail(kKarSeg001, "shard", "unreadable segment container: " + reader->error());
      }
      return fail(kKarSeg011, "shard", "shard file has no boundary frame");
    }
    if (rec.kind != SegmentKind::kShardBoundary) {
      return fail(kKarSeg011, FrameLoc(rec),
                  std::string("shard file must open with a shard-boundary frame, found ") +
                      SegmentKindName(rec.kind));
    }
    if (rec.flags != 0) {
      return fail(kKarSeg011, FrameLoc(rec), "shard-boundary frame must be raw (flags 0)");
    }
    {
      ByteReader in(rec.payload);
      auto boundary = ShardBoundary::Deserialize(&in);
      if (!boundary || !in.AtEnd()) {
        return fail(kKarSeg011, FrameLoc(rec), "shard-boundary payload is malformed");
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
          return fail(kKarSeg001, "shard", "unreadable segment container: " + reader->error());
        }
        break;
      }
      if (!DecodeEpochFrame(rec, SegmentKind::kTrace, epoch, "shard", &seg, &out.diagnostics)) {
        return Rejected(&out);
      }
      if (!reader->Next(&rec)) {
        if (!reader->ok()) {
          return fail(kKarSeg001, "shard", "unreadable segment container: " + reader->error());
        }
        return fail(kKarSeg011, "shard",
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

 private:
  static std::string FrameLoc(const SegmentRecord& rec) {
    return "shard[offset " + std::to_string(rec.offset) + "]";
  }

  static void Fail(ShardLoadResult* out, const char* rule, std::string location,
                   std::string message) {
    out->diagnostics.push_back(
        LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)});
    Rejected(out);
  }

  // Turns the last finding into the result's verdict.
  static ShardLoadResult& Rejected(ShardLoadResult* out) {
    out->ok = false;
    out->rule = out->diagnostics.back().rule;
    out->reason = "segment stream: " + out->diagnostics.back().Format();
    return *out;
  }

  // Boundary-vs-content validation (KAR-SEG-011). Every allegation in the
  // manifest must match what the file actually carries; a clean shard file's
  // boundary is therefore trustworthy input for the merge's cross-shard
  // checks.
  static bool ValidateBoundary(ShardLoadResult* out) {
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
    if (b.rid_digest != DigestRids(b.rids)) return fail("covered rid-set digest mismatch");
    if (b.trace_digest != DigestTraceWindows(slices)) {
      return fail("replicated-trace digest mismatch");
    }
    if (b.balance_digest != DigestBalance(slices)) return fail("balance digest mismatch");

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
    size_t write_order_entries = 0;
    for (const EpochSegment& seg : slices.segments) {
      const Advice& a = seg.advice;
      const auto owned = [&](RequestId rid) {
        return rid == 0 || trace_rids.count(rid) == 0 || covered.count(rid) != 0;
      };
      for (const auto& [rid, tag] : a.tags) {
        if (!owned(rid)) {
          return fail("advice content for rid " + std::to_string(rid) +
                      " is not in the covered rid set");
        }
      }
      for (const auto& [rid, log] : a.handler_logs) {
        if (!owned(rid)) {
          return fail("advice content for rid " + std::to_string(rid) +
                      " is not in the covered rid set");
        }
      }
      for (const auto& [vid, log] : a.var_logs) {
        for (const auto& [op, entry] : log) {
          if (!owned(op.rid)) {
            return fail("advice content for rid " + std::to_string(op.rid) +
                        " is not in the covered rid set");
          }
        }
      }
      for (const auto& [txn, log] : a.tx_logs) {
        if (!owned(txn.rid)) {
          return fail("advice content for rid " + std::to_string(txn.rid) +
                      " is not in the covered rid set");
        }
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

    ShardBoundary recomputed;
    SummarizeContent(slices, &recomputed);
    if (b.total_tags != recomputed.total_tags ||
        b.total_handler_entries != recomputed.total_handler_entries ||
        b.total_var_entries != recomputed.total_var_entries ||
        b.total_tx_ops != recomputed.total_tx_ops ||
        b.total_opcount_sum != recomputed.total_opcount_sum) {
      return fail("advice totals disagree with the file's content");
    }
    if (b.chains.size() != recomputed.chains.size()) {
      return fail("write-chain manifest disagrees with the file's content");
    }
    for (size_t i = 0; i < b.chains.size(); ++i) {
      const ShardBoundary::Chain& got = b.chains[i];
      const ShardBoundary::Chain& want = recomputed.chains[i];
      if (got.vid != want.vid || got.head != want.head || got.tail != want.tail ||
          got.writes != want.writes) {
        return fail("write-chain manifest disagrees with the file's content");
      }
    }

    // Export obligations must be canonical (sorted, unique) and name
    // coordinates this shard can actually describe — requests it owns. What
    // the content at each obligation really is stays the audit's business.
    const auto obligation_owned = [&](RequestId rid) {
      return rid == 0 || trace_rids.count(rid) == 0 || covered.count(rid) != 0;
    };
    for (size_t i = 0; i < b.export_tx_refs.size(); ++i) {
      if (i > 0 && !(b.export_tx_refs[i - 1] < b.export_tx_refs[i])) {
        return fail("export obligations are not strictly ascending at index " +
                    std::to_string(i));
      }
      if (!obligation_owned(b.export_tx_refs[i].rid)) {
        return fail("export obligation " + b.export_tx_refs[i].ToString() +
                    " is not owned by this shard");
      }
    }
    for (size_t i = 0; i < b.export_var_refs.size(); ++i) {
      if (i > 0 && !(b.export_var_refs[i - 1] < b.export_var_refs[i])) {
        return fail("export obligations are not strictly ascending at index " +
                    std::to_string(i));
      }
      if (!obligation_owned(b.export_var_refs[i].second.rid)) {
        return fail("export obligation " + b.export_var_refs[i].second.ToString() +
                    " is not owned by this shard");
      }
    }
    return true;
  }
};

}  // namespace

ShardLoadResult LoadShardFile(const std::string& path) {
  std::optional<FileBytes> bytes = ReadFileBytes(path);
  if (!bytes) return ShardFileLoader().Load(nullptr, "cannot open segment file: " + path);
  return LoadShardBytes(*bytes);
}

ShardLoadResult LoadShardBytes(std::span<const uint8_t> bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  return ShardFileLoader().Load(std::move(reader), error);
}

}  // namespace karousos
