#include "src/server/rollover.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/server/kseg_codec.h"

namespace karousos {

uint64_t EpochOfRid(RequestId rid, uint64_t epoch_requests) {
  if (epoch_requests == 0 || rid == 0) return 0;
  return (rid - 1) / epoch_requests;
}

void ContinuityImports::Serialize(ByteWriter* out) const {
  out->WriteVarint(tx_ops.size());
  for (const TxOpImport& imp : tx_ops) {
    SerializeTxOpRef(imp.ref, out);
    out->WriteBool(imp.txn_present);
    out->WriteBool(imp.op_present);
    out->WriteByte(imp.type);
    out->WriteString(imp.key);
    out->WriteValue(imp.value);
    out->WriteFixed64(imp.hid);
    out->WriteVarint(imp.opnum);
  }
  out->WriteVarint(var_entries.size());
  for (const VarImport& imp : var_entries) {
    out->WriteFixed64(imp.vid);
    SerializeOpRef(imp.op, out);
    out->WriteBool(imp.present);
    out->WriteByte(imp.kind);
    out->WriteValue(imp.value);
  }
}

std::optional<ContinuityImports> ContinuityImports::Deserialize(ByteReader* in) {
  ContinuityImports imports;
  auto tx_count = in->ReadVarint();
  // An import is at least a TxOpRef (10), two bools and the type (3), an
  // empty key and a null value (2), hid (8) and opnum (1): 24 bytes.
  if (!tx_count || !in->CanHold(*tx_count, 24)) return std::nullopt;
  imports.tx_ops.reserve(*tx_count);
  for (uint64_t i = 0; i < *tx_count; ++i) {
    TxOpImport imp;
    auto ref = DeserializeTxOpRef(in);
    auto txn_present = in->ReadBool();
    auto op_present = in->ReadBool();
    auto type = in->ReadByte();
    auto key = in->ReadString();
    auto value = in->ReadValue();
    auto hid = in->ReadFixed64();
    auto opnum = in->ReadVarint();
    if (!ref || !txn_present || !op_present || !type || !key || !value || !hid || !opnum) {
      return std::nullopt;
    }
    imp.ref = *ref;
    imp.txn_present = *txn_present;
    imp.op_present = *op_present;
    imp.type = *type;
    imp.key = std::move(*key);
    imp.value = std::move(*value);
    imp.hid = *hid;
    imp.opnum = static_cast<OpNum>(*opnum);
    imports.tx_ops.push_back(std::move(imp));
  }
  auto var_count = in->ReadVarint();
  // An import is at least vid (8), an OpRef (10), present and kind (2) and a
  // null value (1): 21 bytes.
  if (!var_count || !in->CanHold(*var_count, 21)) return std::nullopt;
  imports.var_entries.reserve(*var_count);
  for (uint64_t i = 0; i < *var_count; ++i) {
    VarImport imp;
    auto vid = in->ReadFixed64();
    auto op = DeserializeOpRef(in);
    auto present = in->ReadBool();
    auto kind = in->ReadByte();
    auto value = in->ReadValue();
    if (!vid || !op || !present || !kind || !value) return std::nullopt;
    imp.vid = *vid;
    imp.op = *op;
    imp.present = *present;
    imp.kind = *kind;
    imp.value = std::move(*value);
    imports.var_entries.push_back(std::move(imp));
  }
  return imports;
}

// Looks up what the full advice alleges at a cross-epoch transaction-log
// coordinate. Mirrors defects faithfully (absent txn, out-of-range index,
// wrong op type) so sliced validation rejects exactly where one-shot does.
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

EpochSlices SliceRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests) {
  // One up-front copy, then the owned slicer: a single slicing implementation
  // keeps server-side and verifier-side segments byte-identical by
  // construction.
  Advice copy = advice;
  return SliceRunOwned(trace, std::move(copy), epoch_requests);
}

EpochSlices SliceRunOwned(const Trace& trace, Advice&& advice, uint64_t epoch_requests) {
  EpochSlices out;
  out.epoch_requests = epoch_requests;

  // The trace's request ids fix the epoch count; advice content beyond the
  // last trace epoch is clamped into the final slice.
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
  const auto clamp_epoch = [&](RequestId rid) {
    return std::min(EpochOfRid(rid, epoch_requests), max_epoch);
  };

  // Chronological cuts: window e ends at the earliest index past the last
  // event of every completed request of epochs <= e. A request missing its
  // arrival or response never completes, so its epoch's cut collapses to the
  // end of the trace (the streaming balance check then rejects at Finish,
  // exactly as the one-shot balance check would up front).
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

  // Continuity imports: allegations for every forward cross-epoch reference,
  // deduplicated and emitted in sorted order so server-side and
  // verifier-side slicing produce byte-identical segments. Computed *before*
  // the slicing below moves the referenced content out of the full advice.
  {
    std::vector<std::map<TxOpRef, ContinuityImports::TxOpImport>> tx_imports(epochs);
    std::vector<std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport>> var_imports(
        epochs);
    for (const auto& [txn, log] : advice.tx_logs) {
      const size_t e = static_cast<size_t>(clamp_epoch(txn.rid));
      for (const TxOperation& op : log) {
        if (op.type != TxOpType::kGet || op.get_from.IsNil()) continue;
        if (clamp_epoch(op.get_from.rid) <= e) continue;
        tx_imports[e].emplace(op.get_from, DescribeTxOp(advice, op.get_from));
      }
    }
    for (const auto& [vid, log] : advice.var_logs) {
      for (const auto& [op, entry] : log) {
        const size_t e = static_cast<size_t>(clamp_epoch(op.rid));
        if (entry.prec.IsNil()) continue;
        if (clamp_epoch(entry.prec.rid) <= e) continue;
        var_imports[e].emplace(std::make_pair(vid, entry.prec),
                               DescribeVarEntry(advice, vid, entry.prec));
      }
    }
    for (size_t e = 0; e < epochs; ++e) {
      EpochSegment& seg = out.segments[e];
      for (auto& [ref, imp] : tx_imports[e]) seg.imports.tx_ops.push_back(std::move(imp));
      for (auto& [key, imp] : var_imports[e]) seg.imports.var_entries.push_back(std::move(imp));
    }
  }

  // Advice slices, by owning request id — content moves out of the full
  // advice (per-epoch key sequences are ascending subsequences of the
  // source maps, so end-hinted inserts rebuild each slice in one pass).
  for (const auto& [rid, tag] : advice.tags) {
    Advice& target = out.segments[clamp_epoch(rid)].advice;
    target.tags.emplace_hint(target.tags.end(), rid, tag);
  }
  for (auto& [rid, log] : advice.handler_logs) {
    Advice& target = out.segments[clamp_epoch(rid)].advice;
    target.handler_logs.emplace_hint(target.handler_logs.end(), rid, std::move(log));
  }
  for (auto& [vid, log] : advice.var_logs) {
    for (auto& [op, entry] : log) {
      VarLog& target = out.segments[clamp_epoch(op.rid)].advice.var_logs[vid];
      target.emplace_hint(target.end(), op, std::move(entry));
    }
  }
  for (auto& [txn, log] : advice.tx_logs) {
    Advice& target = out.segments[clamp_epoch(txn.rid)].advice;
    target.tx_logs.emplace_hint(target.tx_logs.end(), txn, std::move(log));
  }
  for (const auto& [rid, emitter] : advice.response_emitted_by) {
    Advice& target = out.segments[clamp_epoch(rid)].advice;
    target.response_emitted_by.emplace_hint(target.response_emitted_by.end(), rid, emitter);
  }
  for (const auto& [key, count] : advice.opcounts) {
    Advice& target = out.segments[clamp_epoch(key.first)].advice;
    target.opcounts.emplace_hint(target.opcounts.end(), key, count);
  }
  for (auto& [op, record] : advice.nondet) {
    Advice& target = out.segments[clamp_epoch(op.rid)].advice;
    target.nondet.emplace_hint(target.nondet.end(), op, std::move(record));
  }

  // Write order: positional prefix chunks. Chunk e extends while entries
  // belong to epochs <= e; the first later-epoch entry ends the chunk, and
  // earlier-epoch entries stranded behind it move to the later chunk. The
  // chunks therefore concatenate to exactly the alleged global order.
  size_t pos = 0;
  for (size_t e = 0; e < epochs; ++e) {
    WriteOrder& chunk = out.segments[e].advice.write_order;
    if (e + 1 == epochs) {
      chunk.assign(advice.write_order.begin() + static_cast<ptrdiff_t>(pos),
                   advice.write_order.end());
      pos = advice.write_order.size();
      break;
    }
    while (pos < advice.write_order.size() &&
           clamp_epoch(advice.write_order[pos].rid) <= e) {
      chunk.push_back(advice.write_order[pos]);
      ++pos;
    }
  }

  return out;
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

std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices) {
  SegmentWriter writer;
  // One scratch payload buffer across frames: Clear keeps the capacity, so
  // only the largest epoch ever allocates.
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    payload.Clear();
    SerializeTraceEvents(seg.window, &payload);
    writer.Append(SegmentKind::kTrace, seg.epoch, payload.bytes());
  }
  return writer.Take();
}

std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices) {
  SegmentWriter writer;
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    payload.Clear();
    seg.advice.Serialize(&payload);
    seg.imports.Serialize(&payload);
    writer.Append(SegmentKind::kAdvice, seg.epoch, payload.bytes());
  }
  return writer.Take();
}

namespace {

// Appends one frame under the storage-class stages: compact transcode when
// lanes/dict are on, then a per-frame block attempt that keeps whichever form
// is smaller (dropping the block flag when it loses, so flags always describe
// the stored bytes).
template <typename EncodeBody>
void AppendCompressedFrame(SegmentWriter* writer, SegmentKind kind, uint64_t epoch,
                           const KsegCompression& c, ByteWriter* payload,
                           EncodeBody&& encode_body) {
  payload->Clear();
  encode_body(payload);
  uint8_t flags = static_cast<uint8_t>(c.Flags() & ~kFrameFlagBlock);
  if (c.block) {
    std::vector<uint8_t> blocked = BlockFrameEncode(payload->bytes());
    if (blocked.size() < payload->size()) {
      writer->Append(kind, epoch, static_cast<uint8_t>(flags | kFrameFlagBlock), blocked);
      return;
    }
  }
  writer->Append(kind, epoch, flags, payload->bytes());
}

}  // namespace

std::vector<uint8_t> EncodeTraceSegments(const EpochSlices& slices, const KsegCompression& c) {
  if (!c.any()) return EncodeTraceSegments(slices);
  SegmentWriter writer(kSegmentFormatVersionV2);
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    AppendCompressedFrame(&writer, SegmentKind::kTrace, seg.epoch, c, &payload,
                          [&](ByteWriter* out) {
                            if (c.lanes || c.dict) {
                              EncodeCompactTracePayload(seg.window, c, out);
                            } else {
                              SerializeTraceEvents(seg.window, out);
                            }
                          });
  }
  return writer.Take();
}

std::vector<uint8_t> EncodeAdviceSegments(const EpochSlices& slices, const KsegCompression& c) {
  if (!c.any()) return EncodeAdviceSegments(slices);
  SegmentWriter writer(kSegmentFormatVersionV2);
  ByteWriter payload;
  for (const EpochSegment& seg : slices.segments) {
    AppendCompressedFrame(&writer, SegmentKind::kAdvice, seg.epoch, c, &payload,
                          [&](ByteWriter* out) {
                            if (c.lanes || c.dict) {
                              EncodeCompactAdvicePayload(seg.advice, seg.imports, c, out);
                            } else {
                              seg.advice.Serialize(out);
                              seg.imports.Serialize(out);
                            }
                          });
  }
  return writer.Take();
}

std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  auto window = Trace::Deserialize(&reader);
  if (!window || !reader.AtEnd()) return std::nullopt;
  return std::move(window->events);
}

std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  auto advice = Advice::Deserialize(&reader);
  if (!advice) return std::nullopt;
  auto imports = ContinuityImports::Deserialize(&reader);
  if (!imports || !reader.AtEnd()) return std::nullopt;
  AdviceSegmentPayload out;
  out.advice = std::move(*advice);
  out.imports = std::move(*imports);
  return out;
}

std::optional<std::vector<TraceEvent>> DecodeTraceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  if ((flags & ~kFrameFlagsKnownMask) != 0) return std::nullopt;
  if (flags == 0) return DecodeTraceSegmentPayload(payload);
  const KsegCompression c = KsegCompression::FromFlags(flags);
  const std::vector<uint8_t>* body = &payload;
  std::optional<std::vector<uint8_t>> unblocked;
  if (c.block) {
    unblocked = BlockFrameDecode(payload);
    if (!unblocked) return std::nullopt;
    body = &*unblocked;
  }
  if (!c.lanes && !c.dict) {
    return DecodeTraceSegmentPayload(*body);
  }
  return DecodeCompactTracePayload(body->data(), body->size(), c);
}

std::optional<AdviceSegmentPayload> DecodeAdviceSegmentPayload(
    const std::vector<uint8_t>& payload, uint8_t flags) {
  if ((flags & ~kFrameFlagsKnownMask) != 0) return std::nullopt;
  if (flags == 0) return DecodeAdviceSegmentPayload(payload);
  const KsegCompression c = KsegCompression::FromFlags(flags);
  const std::vector<uint8_t>* body = &payload;
  std::optional<std::vector<uint8_t>> unblocked;
  if (c.block) {
    unblocked = BlockFrameDecode(payload);
    if (!unblocked) return std::nullopt;
    body = &*unblocked;
  }
  if (!c.lanes && !c.dict) {
    return DecodeAdviceSegmentPayload(*body);
  }
  return DecodeCompactAdvicePayload(body->data(), body->size(), c);
}

}  // namespace karousos
