#include "src/server/rollover.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/analysis/carry_lint.h"

namespace karousos {

uint64_t EpochOfRid(RequestId rid, uint64_t epoch_requests) {
  if (epoch_requests == 0 || rid == 0) return 0;
  return (rid - 1) / epoch_requests;
}

void ContinuityImports::TxOpImport::Serialize(ByteWriter* out) const {
  SerializeTxOpRef(ref, out);
  out->WriteBool(txn_present);
  out->WriteBool(op_present);
  out->WriteByte(type);
  out->WriteString(key);
  out->WriteValue(value);
  out->WriteFixed64(hid);
  out->WriteVarint(opnum);
}

ContinuityImports::TxOpImport ContinuityImports::TxOpImport::Deserialize(StateReader* in) {
  TxOpImport imp;
  imp.ref = in->Tx();
  imp.txn_present = in->Bool();
  imp.op_present = in->Bool();
  imp.type = in->B();
  imp.key = in->S();
  imp.value = in->Val();
  imp.hid = in->F64();
  const uint64_t opnum = in->V();
  if (opnum > kOpNumInf) {
    in->Fail();
  }
  imp.opnum = static_cast<OpNum>(opnum);
  return imp;
}

void ContinuityImports::VarImport::Serialize(ByteWriter* out) const {
  out->WriteFixed64(vid);
  SerializeOpRef(op, out);
  out->WriteBool(present);
  out->WriteByte(kind);
  out->WriteValue(value);
}

ContinuityImports::VarImport ContinuityImports::VarImport::Deserialize(StateReader* in) {
  VarImport imp;
  imp.vid = in->F64();
  imp.op = in->Op();
  imp.present = in->Bool();
  imp.kind = in->B();
  imp.value = in->Val();
  return imp;
}

void ContinuityImports::Encode(FieldEncoder* e) const {
  e->Varint(tx_ops.size());
  uint64_t prev_rid = 0;
  for (const TxOpImport& imp : tx_ops) {
    e->Lane(imp.ref.rid, &prev_rid);
    e->Id(imp.ref.tid);
    e->Varint(imp.ref.index);
    e->Bool(imp.txn_present);
    e->Bool(imp.op_present);
    e->Byte(imp.type);
    e->Str(imp.key);
    e->Val(imp.value);
    e->Id(imp.hid);
    e->Varint(imp.opnum);
  }
  e->Varint(var_entries.size());
  prev_rid = 0;
  for (const VarImport& imp : var_entries) {
    e->Id(imp.vid);
    e->Lane(imp.op.rid, &prev_rid);
    e->Id(imp.op.hid);
    e->Varint(imp.op.opnum);
    e->Bool(imp.present);
    e->Byte(imp.kind);
    e->Val(imp.value);
  }
}

std::optional<ContinuityImports> ContinuityImports::Decode(FieldDecoder* d) {
  ContinuityImports imports;
  const size_t id = d->IdBytes();
  auto tx_count = d->Varint();
  // Rid, tid, index, two bools, type, key, value, hid, opnum.
  if (!tx_count || !d->CanHold(*tx_count, 8 + 2 * id)) {
    return std::nullopt;
  }
  imports.tx_ops.reserve(static_cast<size_t>(*tx_count));
  uint64_t prev_rid = 0;
  for (uint64_t i = 0; i < *tx_count; ++i) {
    TxOpImport imp;
    auto rid = d->Lane(&prev_rid);
    auto tid = d->Id();
    auto index = Narrow32(d->Varint());
    auto txn_present = d->Bool();
    auto op_present = d->Bool();
    auto type = d->Byte();
    auto key = d->Str();
    auto value = d->Val();
    auto hid = d->Id();
    auto opnum = Narrow32(d->Varint());
    if (!rid || !tid || !index || !txn_present || !op_present || !type || !key || !value ||
        !hid || !opnum) {
      return std::nullopt;
    }
    imp.ref = TxOpRef{*rid, *tid, *index};
    imp.txn_present = *txn_present;
    imp.op_present = *op_present;
    imp.type = *type;
    imp.key = std::move(*key);
    imp.value = std::move(*value);
    imp.hid = *hid;
    imp.opnum = *opnum;
    imports.tx_ops.push_back(std::move(imp));
  }
  auto var_count = d->Varint();
  // Vid, rid, hid, opnum, present, kind, value.
  if (!var_count || !d->CanHold(*var_count, 5 + 2 * id)) {
    return std::nullopt;
  }
  imports.var_entries.reserve(static_cast<size_t>(*var_count));
  prev_rid = 0;
  for (uint64_t i = 0; i < *var_count; ++i) {
    VarImport imp;
    auto vid = d->Id();
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = Narrow32(d->Varint());
    auto present = d->Bool();
    auto kind = d->Byte();
    auto value = d->Val();
    if (!vid || !rid || !hid || !opnum || !present || !kind || !value) {
      return std::nullopt;
    }
    imp.vid = *vid;
    imp.op = OpRef{*rid, *hid, *opnum};
    imp.present = *present;
    imp.kind = *kind;
    imp.value = std::move(*value);
    imports.var_entries.push_back(std::move(imp));
  }
  return imports;
}

// Looks up what the full advice alleges at a cross-epoch transaction-log
// coordinate. Mirrors defects faithfully (absent txn, out-of-range index,
// wrong op type) so validation rejects at every epoch size where one epoch
// does.
ContinuityImports::TxOpImport DescribeTxOp(const Advice& advice, const TxOpRef& ref) {
  ContinuityImports::TxOpImport imp;
  imp.ref = ref;
  auto it = advice.tx_logs.find(TxnKey{ref.rid, ref.tid});
  if (it == advice.tx_logs.end()) return imp;
  imp.txn_present = true;
  if (ref.index < 1 || ref.index > it->second.size()) return imp;
  imp.op_present = true;
  const TxOperation& op = it->second[ref.index - 1];
  imp.type = static_cast<uint8_t>(op.type);
  imp.key = op.key;
  imp.value = op.put_value;
  imp.hid = op.hid;
  imp.opnum = op.opnum;
  return imp;
}

ContinuityImports::VarImport DescribeVarEntry(const Advice& advice, VarId vid, const OpRef& op) {
  ContinuityImports::VarImport imp;
  imp.vid = vid;
  imp.op = op;
  auto vit = advice.var_logs.find(vid);
  if (vit == advice.var_logs.end()) return imp;
  auto eit = vit->second.find(op);
  if (eit == vit->second.end()) return imp;
  imp.present = true;
  imp.kind = static_cast<uint8_t>(eit->second.kind);
  imp.value = eit->second.value;
  return imp;
}

ResolvedTxOp ResolveImport(const ContinuityImports::TxOpImport& imp) {
  ResolvedTxOp out;
  out.txn_present = imp.txn_present;
  out.op_present = imp.op_present;
  if (imp.op_present) {
    out.is_put = static_cast<TxOpType>(imp.type) == TxOpType::kPut;
    out.key = imp.key;
    out.put_value = &imp.value;
    out.hid = imp.hid;
    out.opnum = imp.opnum;
  }
  return out;
}

ResolvedVarEntry ResolveImport(const ContinuityImports::VarImport& imp) {
  return {imp.present, static_cast<VarLogEntry::Kind>(imp.kind) == VarLogEntry::Kind::kWrite,
          &imp.value};
}

bool TxImportMatches(const ContinuityImports::TxOpImport& imp, const ResolvedTxOp& real) {
  if (real.txn_present != imp.txn_present || real.op_present != imp.op_present) return false;
  if (!imp.op_present) return true;
  bool imp_is_put = static_cast<TxOpType>(imp.type) == TxOpType::kPut;
  if (real.is_put != imp_is_put) return false;
  return !imp_is_put || (real.key == imp.key && *real.put_value == imp.value &&
                         real.hid == imp.hid && real.opnum == imp.opnum);
}

bool VarImportMatches(const ContinuityImports::VarImport& imp, const ResolvedVarEntry& real) {
  if (real.present != imp.present) return false;
  if (!imp.present) return true;
  bool imp_is_write = static_cast<VarLogEntry::Kind>(imp.kind) == VarLogEntry::Kind::kWrite;
  return real.is_write == imp_is_write && (!imp_is_write || *real.value == imp.value);
}

namespace {

// Cuts the trace into its epochs' chronological windows. The trace's request
// ids fix the epoch count; advice content beyond the last trace epoch is
// clamped into the final slice. Window e ends at the earliest index past the
// last event of every completed request of epochs <= e. A request missing its
// arrival or response never completes, so its epoch's cut collapses to the
// end of the trace (the balance check then rejects at Finish, with the reason
// a one-epoch audit gives).
EpochSlices CutWindows(const Trace& trace, uint64_t epoch_requests) {
  struct RidSeen {
    bool req = false;
    bool resp = false;
    size_t last = 0;
  };
  std::map<RequestId, RidSeen> seen;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    RidSeen& s = seen[ev.rid];
    (ev.kind == TraceEvent::Kind::kRequest ? s.req : s.resp) = true;
    s.last = i;
  }
  uint64_t max_epoch = 0;
  for (const auto& [rid, s] : seen) {
    max_epoch = std::max(max_epoch, EpochOfRid(rid, epoch_requests));
  }
  const size_t epochs = static_cast<size_t>(max_epoch) + 1;

  std::vector<size_t> completion(epochs, 0);  // One-past-last event index.
  std::vector<bool> incomplete(epochs, false);
  for (const auto& [rid, s] : seen) {
    const size_t e = static_cast<size_t>(EpochOfRid(rid, epoch_requests));
    if (!s.req || !s.resp) {
      incomplete[e] = true;
    } else {
      completion[e] = std::max(completion[e], s.last + 1);
    }
  }
  EpochSlices out;
  out.epoch_requests = epoch_requests;
  out.segments.resize(epochs);
  size_t prev_cut = 0;
  size_t running_completion = 0;
  bool running_incomplete = false;
  for (size_t e = 0; e < epochs; ++e) {
    running_completion = std::max(running_completion, completion[e]);
    running_incomplete = running_incomplete || incomplete[e];
    size_t cut = running_incomplete ? trace.events.size() : running_completion;
    if (e + 1 == epochs) cut = trace.events.size();
    cut = std::max(cut, prev_cut);
    out.segments[e].epoch = e;
    out.segments[e].window.assign(trace.events.begin() + static_cast<ptrdiff_t>(prev_cut),
                                  trace.events.begin() + static_cast<ptrdiff_t>(cut));
    prev_cut = cut;
  }
  return out;
}

// The one continuity-import pass, over the full advice: a reference needs an
// allegation when its target lies in a later epoch or is owned by another
// partition (never confirmable locally). Imports are deduplicated and emitted
// in sorted order, so every slicer produces byte-identical segments. Returns
// the imports of partition p's epoch e at [p * epochs + e].
template <typename OwnerOf>
std::vector<ContinuityImports> SliceImports(const Advice& advice, size_t partitions,
                                            uint64_t epoch_requests, uint64_t max_epoch,
                                            OwnerOf owner_of) {
  const auto clamp_epoch = [&](RequestId rid) {
    return std::min(EpochOfRid(rid, epoch_requests), max_epoch);
  };
  const size_t epochs = static_cast<size_t>(max_epoch) + 1;
  std::vector<std::map<TxOpRef, ContinuityImports::TxOpImport>> tx_imports(partitions * epochs);
  std::vector<std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport>> var_imports(
      partitions * epochs);
  for (const auto& [txn, log] : advice.tx_logs) {
    const uint32_t p = owner_of(txn.rid);
    const uint64_t e = clamp_epoch(txn.rid);
    for (const TxOperation& op : log) {
      if (op.type != TxOpType::kGet || op.get_from.IsNil()) continue;
      if (clamp_epoch(op.get_from.rid) <= e && owner_of(op.get_from.rid) == p) continue;
      tx_imports[p * epochs + e].emplace(op.get_from, DescribeTxOp(advice, op.get_from));
    }
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      if (entry.prec.IsNil()) continue;
      const uint32_t p = owner_of(op.rid);
      const uint64_t e = clamp_epoch(op.rid);
      if (clamp_epoch(entry.prec.rid) <= e && owner_of(entry.prec.rid) == p) continue;
      var_imports[p * epochs + e].emplace(std::make_pair(vid, entry.prec),
                                          DescribeVarEntry(advice, vid, entry.prec));
    }
  }
  std::vector<ContinuityImports> out(partitions * epochs);
  for (size_t i = 0; i < out.size(); ++i) {
    for (auto& [ref, imp] : tx_imports[i]) out[i].tx_ops.push_back(std::move(imp));
    for (auto& [key, imp] : var_imports[i]) out[i].var_entries.push_back(std::move(imp));
  }
  return out;
}

// Moves one partition's advice into its epochs' slices, by owning request id
// (per-epoch key sequences are ascending subsequences of the source maps, so
// end-hinted inserts rebuild each slice in one pass).
void SliceAdvice(Advice&& advice, EpochSlices* slices) {
  const uint64_t max_epoch = slices->segments.size() - 1;
  const auto clamp_epoch = [&](RequestId rid) {
    return std::min(EpochOfRid(rid, slices->epoch_requests), max_epoch);
  };
  std::vector<EpochSegment>& segments = slices->segments;
  for (const auto& [rid, tag] : advice.tags) {
    Advice& target = segments[clamp_epoch(rid)].advice;
    target.tags.emplace_hint(target.tags.end(), rid, tag);
  }
  for (auto& [rid, log] : advice.handler_logs) {
    Advice& target = segments[clamp_epoch(rid)].advice;
    target.handler_logs.emplace_hint(target.handler_logs.end(), rid, std::move(log));
  }
  for (auto& [vid, log] : advice.var_logs) {
    for (auto& [op, entry] : log) {
      VarLog& target = segments[clamp_epoch(op.rid)].advice.var_logs[vid];
      target.emplace_hint(target.end(), op, std::move(entry));
    }
  }
  for (auto& [txn, log] : advice.tx_logs) {
    Advice& target = segments[clamp_epoch(txn.rid)].advice;
    target.tx_logs.emplace_hint(target.tx_logs.end(), txn, std::move(log));
  }
  for (const auto& [rid, emitter] : advice.response_emitted_by) {
    Advice& target = segments[clamp_epoch(rid)].advice;
    target.response_emitted_by.emplace_hint(target.response_emitted_by.end(), rid, emitter);
  }
  for (const auto& [key, count] : advice.opcounts) {
    Advice& target = segments[clamp_epoch(key.first)].advice;
    target.opcounts.emplace_hint(target.opcounts.end(), key, count);
  }
  for (auto& [op, record] : advice.nondet) {
    Advice& target = segments[clamp_epoch(op.rid)].advice;
    target.nondet.emplace_hint(target.nondet.end(), op, std::move(record));
  }

  // Write order: positional prefix chunks. Chunk e extends while entries
  // belong to epochs <= e; the first later-epoch entry ends the chunk, and
  // earlier-epoch entries stranded behind it move to the later chunk. The
  // chunks therefore concatenate to exactly the alleged global order.
  const WriteOrder& order = advice.write_order;
  size_t pos = 0;
  for (size_t e = 0; e + 1 < segments.size(); ++e) {
    WriteOrder& chunk = segments[e].advice.write_order;
    while (pos < order.size() && clamp_epoch(order[pos].rid) <= e) {
      chunk.push_back(order[pos]);
      ++pos;
    }
  }
  segments.back().advice.write_order.assign(order.begin() + static_cast<ptrdiff_t>(pos),
                                            order.end());
}

// Slices every partition: each gets the whole trace's windows, the imports
// SliceImports gives it, and its own advice. `advice` may be (*parts)[0]:
// every import is described before any content moves out of `parts`.
template <typename OwnerOf>
std::vector<EpochSlices> SliceParts(const Trace& trace, const Advice& advice,
                                    std::vector<Advice>* parts, OwnerOf owner_of,
                                    uint64_t epoch_requests) {
  EpochSlices windows = CutWindows(trace, epoch_requests);
  const size_t epochs = windows.segments.size();
  std::vector<ContinuityImports> imports =
      SliceImports(advice, parts->size(), epoch_requests, epochs - 1, owner_of);
  std::vector<EpochSlices> out(parts->size());
  for (size_t p = 0; p < parts->size(); ++p) {
    out[p] = p + 1 == parts->size() ? std::move(windows) : windows;
    for (size_t e = 0; e < epochs; ++e) {
      out[p].segments[e].imports = std::move(imports[p * epochs + e]);
    }
    SliceAdvice(std::move((*parts)[p]), &out[p]);
  }
  return out;
}

}  // namespace

EpochSlices SliceRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests) {
  // One up-front copy, then the owned slicer: a single slicing implementation
  // keeps server-side and verifier-side segments byte-identical by
  // construction.
  Advice copy = advice;
  return SliceRunOwned(trace, std::move(copy), epoch_requests);
}

EpochSlices SliceRunOwned(const Trace& trace, Advice&& advice, uint64_t epoch_requests) {
  std::vector<Advice> parts;
  parts.push_back(std::move(advice));
  return std::move(
      SliceParts(trace, parts[0], &parts, [](RequestId) { return uint32_t{0}; }, epoch_requests)
          .front());
}

std::vector<EpochSlices> SlicePartitions(const Trace& trace, const Advice& advice,
                                         std::vector<Advice>&& parts,
                                         const std::function<uint32_t(RequestId)>& owner_of,
                                         uint64_t epoch_requests) {
  return SliceParts(trace, advice, &parts, owner_of, epoch_requests);
}

Advice MergeSlices(EpochSlices&& slices) {
  Advice out;
  // Epochs partition request ids into ascending ranges (rid 0 in epoch 0,
  // clamped high rids in the final epoch), so concatenating the per-epoch
  // maps in epoch order yields every component's keys in ascending order —
  // end-hinted inserts rebuild the monolithic maps in one pass.
  for (EpochSegment& seg : slices.segments) {
    Advice& a = seg.advice;
    for (const auto& [rid, tag] : a.tags) {
      out.tags.emplace_hint(out.tags.end(), rid, tag);
    }
    for (auto& [rid, log] : a.handler_logs) {
      out.handler_logs.emplace_hint(out.handler_logs.end(), rid, std::move(log));
    }
    for (auto& [vid, log] : a.var_logs) {
      VarLog& target = out.var_logs[vid];
      for (auto& [op, entry] : log) {
        target.emplace_hint(target.end(), op, std::move(entry));
      }
    }
    for (auto& [txn, log] : a.tx_logs) {
      out.tx_logs.emplace_hint(out.tx_logs.end(), txn, std::move(log));
    }
    for (const auto& [rid, emitter] : a.response_emitted_by) {
      out.response_emitted_by.emplace_hint(out.response_emitted_by.end(), rid, emitter);
    }
    for (const auto& [key, count] : a.opcounts) {
      out.opcounts.emplace_hint(out.opcounts.end(), key, count);
    }
    for (auto& [op, record] : a.nondet) {
      out.nondet.emplace_hint(out.nondet.end(), op, std::move(record));
    }
    out.write_order.insert(out.write_order.end(), a.write_order.begin(), a.write_order.end());
  }
  return out;
}

void EpochFrameWriter::AppendManifest(uint64_t epoch_requests) {
  payload_.Clear();
  payload_.WriteVarint(epoch_requests);
  writer_.Append(SegmentKind::kEpochManifest, 0, payload_.bytes());
}

void EpochFrameWriter::AppendTrace(const EpochSegment& seg) {
  payload_.Clear();
  EncodeTraceSegmentPayload(seg.window, c_, &payload_);
  AppendPayload(SegmentKind::kTrace, seg.epoch);
}

void EpochFrameWriter::AppendAdvice(const EpochSegment& seg) {
  payload_.Clear();
  EncodeAdviceSegmentPayload(seg.advice, seg.imports, c_, &payload_);
  AppendPayload(SegmentKind::kAdvice, seg.epoch);
}

// A per-frame block attempt that keeps whichever form is smaller, dropping
// the block flag when it loses, so flags always describe the stored bytes.
void EpochFrameWriter::AppendPayload(SegmentKind kind, uint64_t epoch) {
  const uint8_t flags = static_cast<uint8_t>(c_.Flags() & ~kFrameFlagBlock);
  if (c_.block) {
    std::vector<uint8_t> blocked = BlockFrameEncode(payload_.bytes());
    if (blocked.size() < payload_.size()) {
      writer_.Append(kind, epoch, static_cast<uint8_t>(flags | kFrameFlagBlock), blocked);
      return;
    }
  }
  writer_.Append(kind, epoch, flags, payload_.bytes());
}

void EpochFrameWriter::AppendRaw(SegmentKind kind, uint64_t epoch,
                                 const std::vector<uint8_t>& payload) {
  writer_.Append(kind, epoch, payload);
}

void EncodeTraceSegmentPayload(const std::vector<TraceEvent>& events, const KsegCompression& c,
                               ByteWriter* out) {
  FieldEncoder e(c, out);
  EncodeTraceEvents(events, &e);
  e.Finish();
}

void EncodeAdviceSegmentPayload(const Advice& advice, const ContinuityImports& imports,
                                const KsegCompression& c, ByteWriter* out) {
  FieldEncoder e(c, out);
  advice.Encode(&e);
  imports.Encode(&e);
  e.Finish();
}

std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices, const KsegCompression& c) {
  EpochFrameWriter writer(c);
  writer.AppendManifest(slices.epoch_requests);
  for (const EpochSegment& seg : slices.segments) {
    writer.AppendTrace(seg);
  }
  return writer.Take();
}

std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices, const KsegCompression& c) {
  EpochFrameWriter writer(c);
  writer.AppendManifest(slices.epoch_requests);
  for (const EpochSegment& seg : slices.segments) {
    writer.AppendAdvice(seg);
  }
  return writer.Take();
}

namespace {

// The payload with the block stage undone: `payload` itself, or the decoded
// block held in *storage. nullptr when the flags name an unknown bit or the
// block does not decode.
const std::vector<uint8_t>* Unblock(const std::vector<uint8_t>& payload, uint8_t flags,
                                    std::vector<uint8_t>* storage) {
  if ((flags & ~kFrameFlagsKnownMask) != 0) return nullptr;
  if ((flags & kFrameFlagBlock) == 0) return &payload;
  std::optional<std::vector<uint8_t>> decoded = BlockFrameDecode(payload);
  if (!decoded) return nullptr;
  *storage = std::move(*decoded);
  return storage;
}

}  // namespace

std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  std::vector<uint8_t> unblocked;
  const std::vector<uint8_t>* body = Unblock(payload, flags, &unblocked);
  if (body == nullptr) return std::nullopt;
  ByteReader reader(*body);
  FieldDecoder d(&reader, KsegCompression::FromFlags(flags));
  if (!d.Init()) return std::nullopt;
  auto window = DecodeTraceEvents(&d);
  if (!window || !reader.AtEnd()) return std::nullopt;
  return window;
}

std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  std::vector<uint8_t> unblocked;
  const std::vector<uint8_t>* body = Unblock(payload, flags, &unblocked);
  if (body == nullptr) return std::nullopt;
  ByteReader reader(*body);
  FieldDecoder d(&reader, KsegCompression::FromFlags(flags));
  if (!d.Init()) return std::nullopt;
  auto advice = Advice::Decode(&d);
  if (!advice) return std::nullopt;
  auto imports = ContinuityImports::Decode(&d);
  if (!imports || !reader.AtEnd()) return std::nullopt;
  AdviceSegmentPayload out;
  out.advice = std::move(*advice);
  out.imports = std::move(*imports);
  return out;
}

std::optional<uint64_t> DecodeEpochManifestPayload(const std::vector<uint8_t>& payload) {
  ByteReader in(payload);
  std::optional<uint64_t> epoch_requests = in.ReadVarint();
  ByteWriter canonical;
  if (epoch_requests) canonical.WriteVarint(*epoch_requests);
  if (!epoch_requests || canonical.bytes() != payload) return std::nullopt;
  return epoch_requests;
}

std::optional<uint64_t> ReadEpochManifest(SegmentReader* reader, const char* stream,
                                          std::vector<LintDiagnostic>* diags) {
  SegmentRecord rec;
  const auto fail = [&](const char* rule, std::string location, std::string message) {
    diags->push_back(LintDiagnostic{rule, LintSeverity::kError, std::move(location),
                                    std::move(message)});
    return std::nullopt;
  };
  if (!reader->Next(&rec)) {
    if (!reader->ok()) {
      return fail(kKarSeg001, stream, "unreadable segment container: " + reader->error());
    }
    return fail(kKarSeg002, stream, "container holds no epoch-manifest frame");
  }
  std::string location = std::string(stream) + "[offset " + std::to_string(rec.offset) + "]";
  if (rec.kind != SegmentKind::kEpochManifest) {
    return fail(kKarSeg002, std::move(location),
                std::string("container must open with an epoch-manifest frame, found ") +
                    SegmentKindName(rec.kind));
  }
  if (rec.flags != 0) {
    return fail(kKarSeg002, std::move(location), "epoch-manifest frame must be raw (flags 0)");
  }
  std::optional<uint64_t> epoch_requests = DecodeEpochManifestPayload(rec.payload);
  if (rec.epoch != 0 || !epoch_requests) {
    return fail(kKarSeg002, std::move(location), "epoch-manifest frame is malformed");
  }
  return epoch_requests;
}

bool DecodeEpochFrame(const SegmentRecord& rec, SegmentKind kind, uint64_t epoch,
                      const char* stream, EpochSegment* out,
                      std::vector<LintDiagnostic>* diags) {
  const auto fail = [&](const char* rule, std::string message) {
    diags->push_back(LintDiagnostic{rule, LintSeverity::kError,
                                    std::string(stream) + "[offset " +
                                        std::to_string(rec.offset) + "]",
                                    std::move(message)});
    return false;
  };
  if (rec.kind != kind) {
    return fail(kKarSeg002, std::string("unexpected ") + SegmentKindName(rec.kind) +
                                " frame where an epoch's " + SegmentKindName(kind) +
                                " frame belongs");
  }
  if (rec.epoch != epoch) {
    const std::string got = std::to_string(rec.epoch);
    const std::string expected = " (expected epoch " + std::to_string(epoch) + ")";
    return fail(kKarSeg003, rec.epoch < epoch
                                ? "duplicate or out-of-order frame for epoch " + got + expected
                                : "epoch gap: frame for epoch " + got + expected);
  }
  const std::string malformed = std::string(SegmentKindName(kind)) +
                                " segment payload for epoch " + std::to_string(epoch) +
                                " is malformed";
  if (kind == SegmentKind::kTrace) {
    auto window = DecodeTraceSegmentPayload(rec.payload, rec.flags);
    if (!window) return fail(kKarSeg002, malformed);
    out->window = std::move(*window);
  } else {
    auto payload = DecodeAdviceSegmentPayload(rec.payload, rec.flags);
    if (!payload) return fail(kKarSeg002, malformed);
    out->advice = std::move(payload->advice);
    out->imports = std::move(payload->imports);
  }
  out->epoch = epoch;
  return true;
}

}  // namespace karousos
