#include "src/analysis/kseg_mutate.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/rollover.h"

namespace karousos {

namespace {

KsegMutation Encode(std::string name, const EpochSlices& slices) {
  return KsegMutation{std::move(name), EncodeTraceSegments(slices),
                      EncodeAdviceSegments(slices)};
}

KsegMutation EncodeRun(std::string name, const Trace& trace, const Advice& advice,
                       uint64_t epoch_requests) {
  return Encode(std::move(name), SliceRun(trace, advice, epoch_requests));
}

// --- Component family: the epoch_audit_test seeds over the monolith --------

void BuildComponentMutations(const Trace& trace, const Advice& advice, uint64_t epoch_requests,
                             std::vector<KsegMutation>* out) {
  {
    Trace t = trace;
    for (TraceEvent& ev : t.events) {
      if (ev.kind == TraceEvent::Kind::kResponse) {
        ev.payload = Value("forged");
        out->push_back(EncodeRun("component:forged-response", t, advice, epoch_requests));
        break;
      }
    }
  }
  {
    Trace t = trace;
    for (auto it = t.events.rbegin(); it != t.events.rend(); ++it) {
      if (it->kind == TraceEvent::Kind::kResponse) {
        it->payload = Value("forged");
        out->push_back(EncodeRun("component:forged-response-late", t, advice, epoch_requests));
        break;
      }
    }
  }
  {
    Advice a = advice;
    bool mutated = false;
    for (auto& [vid, log] : a.var_logs) {
      for (auto& [op, entry] : log) {
        if (entry.kind == VarLogEntry::Kind::kWrite) {
          entry.value = Value("poisoned");
          mutated = true;
          break;
        }
      }
      if (mutated) {
        break;
      }
    }
    if (mutated) {
      out->push_back(EncodeRun("component:tampered-var-write-value", trace, a, epoch_requests));
    }
  }
  if (!advice.var_logs.empty()) {
    Advice a = advice;
    VarLogEntry ghost;
    ghost.kind = VarLogEntry::Kind::kWrite;
    ghost.value = Value("ghost");
    ghost.prec = kNilOp;
    a.var_logs.begin()->second.emplace(OpRef{1, 0x1234, 77}, ghost);
    out->push_back(EncodeRun("component:ghost-var-log-entry", trace, a, epoch_requests));
  }
  {
    Advice a = advice;
    for (auto& [rid, log] : a.handler_logs) {
      if (!log.empty()) {
        log.pop_back();
        out->push_back(
            EncodeRun("component:dropped-handler-log-entry", trace, a, epoch_requests));
        break;
      }
    }
  }
  if (!advice.opcounts.empty()) {
    Advice a = advice;
    a.opcounts.begin()->second += 1;
    out->push_back(EncodeRun("component:inflated-opcount", trace, a, epoch_requests));
  }
  if (!advice.response_emitted_by.empty()) {
    Advice a = advice;
    a.response_emitted_by.erase(a.response_emitted_by.begin());
    out->push_back(EncodeRun("component:missing-response-emitted-by", trace, a, epoch_requests));
  }
  if (advice.write_order.size() >= 2) {
    Advice a = advice;
    std::swap(a.write_order.front(), a.write_order.back());
    out->push_back(EncodeRun("component:swapped-write-order", trace, a, epoch_requests));
  }
  {
    Advice a = advice;
    bool mutated = false;
    for (auto& [txn, log] : a.tx_logs) {
      for (TxOperation& op : log) {
        if (op.type == TxOpType::kGet && op.get_found) {
          op.get_found = false;
          op.get_from = kNilTxOp;
          mutated = true;
          break;
        }
      }
      if (mutated) {
        break;
      }
    }
    if (mutated) {
      out->push_back(EncodeRun("component:get-claimed-not-found", trace, a, epoch_requests));
    }
  }
  {
    Trace t = trace;
    for (auto it = t.events.rbegin(); it != t.events.rend(); ++it) {
      if (it->kind == TraceEvent::Kind::kResponse) {
        t.events.erase(std::next(it).base());
        out->push_back(EncodeRun("component:unbalanced-trace", t, advice, epoch_requests));
        break;
      }
    }
  }
}

// --- Slice family: cross-epoch defects injected after slicing --------------

void BuildSliceMutations(const Trace& trace, const Advice& advice, uint64_t epoch_requests,
                         std::vector<KsegMutation>* out) {
  const EpochSlices honest = SliceRun(trace, advice, epoch_requests);
  if (honest.segments.size() < 2) {
    return;  // Every mutation here needs at least two epochs.
  }
  const size_t last = honest.segments.size() - 1;

  // Content from an earlier epoch duplicated into a later slice.
  for (size_t from = 0; from < last; ++from) {
    const Advice& src = honest.segments[from].advice;
    if (!src.tags.empty()) {
      EpochSlices s = honest;
      s.segments[last].advice.tags.insert(*src.tags.begin());
      out->push_back(Encode("slice:dup-tag[" + std::to_string(from) + "->last]", s));
    }
    if (!src.opcounts.empty()) {
      EpochSlices s = honest;
      s.segments[last].advice.opcounts.insert(*src.opcounts.begin());
      out->push_back(Encode("slice:dup-opcount[" + std::to_string(from) + "->last]", s));
    }
    if (!src.var_logs.empty() && !src.var_logs.begin()->second.empty()) {
      // Duplicate a var-log entry *and* its covering opcounts row, so the
      // slice-local coverage rule stays quiet and the cross-epoch claim rule
      // is what has to fire.
      EpochSlices s = honest;
      auto vid_it = src.var_logs.begin();
      auto entry_it = vid_it->second.begin();
      s.segments[last].advice.var_logs[vid_it->first].insert(*entry_it);
      const OpRef& op = entry_it->first;
      auto oc = src.opcounts.find({op.rid, op.hid});
      if (oc != src.opcounts.end()) {
        s.segments[last].advice.opcounts.insert(*oc);
      }
      out->push_back(Encode("slice:dup-var-entry[" + std::to_string(from) + "->last]", s));
    }
    if (!src.write_order.empty()) {
      EpochSlices s = honest;
      s.segments[last].advice.write_order.push_back(src.write_order.front());
      out->push_back(
          Encode("slice:recur-write-order[" + std::to_string(from) + "->last]", s));
    }
  }

  // Continuity-import tampering: flip the truth of each kind of allegation.
  // Registration is first-wins across segments, so a mutated copy of an
  // import some earlier segment also carries would be silently shadowed by
  // the honest registration — only tamper an import whose FIRST registration
  // is in this segment.
  for (size_t e = 0; e <= last; ++e) {
    const ContinuityImports& imports = honest.segments[e].imports;
    auto var_seen_earlier = [&](const ContinuityImports::VarImport& imp) {
      for (size_t p = 0; p < e; ++p) {
        for (const auto& prev : honest.segments[p].imports.var_entries) {
          if (prev.vid == imp.vid && prev.op == imp.op) {
            return true;
          }
        }
      }
      return false;
    };
    auto tx_seen_earlier = [&](const ContinuityImports::TxOpImport& imp) {
      for (size_t p = 0; p < e; ++p) {
        for (const auto& prev : honest.segments[p].imports.tx_ops) {
          if (prev.ref == imp.ref) {
            return true;
          }
        }
      }
      return false;
    };
    for (size_t vi = 0; vi < imports.var_entries.size(); ++vi) {
      const ContinuityImports::VarImport& cand = imports.var_entries[vi];
      // Only a present WRITE import has its value pinned by confirmation; a
      // read's value (or an absence claim) would make the tamper vacuous.
      if (!cand.present ||
          static_cast<VarLogEntry::Kind>(cand.kind) != VarLogEntry::Kind::kWrite ||
          var_seen_earlier(cand)) {
        continue;
      }
      EpochSlices s = honest;
      ContinuityImports::VarImport& imp = s.segments[e].imports.var_entries[vi];
      imp.value = Value("tampered-import");
      imp.kind = static_cast<uint8_t>(VarLogEntry::Kind::kWrite);
      out->push_back(Encode("slice:tamper-var-import[" + std::to_string(e) + "]", s));

      // Claim the entry is absent from its epoch: the arriving slice refutes
      // the allegation whether or not any replay ever consumes it.
      EpochSlices d = honest;
      d.segments[e].imports.var_entries[vi].present = false;
      out->push_back(Encode("slice:deny-var-import[" + std::to_string(e) + "]", d));
      break;
    }
    for (size_t ti = 0; ti < imports.tx_ops.size(); ++ti) {
      if (tx_seen_earlier(imports.tx_ops[ti])) {
        continue;
      }
      EpochSlices s = honest;
      ContinuityImports::TxOpImport& imp = s.segments[e].imports.tx_ops[ti];
      imp.txn_present = !imp.txn_present;
      imp.op_present = imp.txn_present;
      out->push_back(Encode("slice:tamper-tx-import[" + std::to_string(e) + "]", s));
      break;
    }
  }

  // A fabricated allegation about coordinates beyond the final epoch: no
  // later slice ever arrives to confirm it.
  {
    EpochSlices s = honest;
    ContinuityImports::TxOpImport imp;
    imp.ref = TxOpRef{(last + 2) * (epoch_requests == 0 ? 1 : epoch_requests), 7, 1};
    imp.txn_present = true;
    imp.op_present = true;
    imp.type = static_cast<uint8_t>(TxOpType::kPut);
    imp.key = "phantom";
    imp.value = Value("phantom");
    s.segments[0].imports.tx_ops.push_back(imp);
    out->push_back(Encode("slice:dangling-tx-import", s));
  }

  // A backward (non-forward) allegation: imports may only point ahead.
  if (!honest.segments[0].advice.tx_logs.empty()) {
    EpochSlices s = honest;
    const auto& [txn, log] = *honest.segments[0].advice.tx_logs.begin();
    if (!log.empty()) {
      ContinuityImports::TxOpImport imp;
      imp.ref = TxOpRef{txn.rid, txn.tid, 1};
      imp.txn_present = true;
      imp.op_present = true;
      imp.type = static_cast<uint8_t>(log[0].type);
      imp.key = log[0].key;
      imp.value = log[0].put_value;
      imp.hid = log[0].hid;
      imp.opnum = log[0].opnum;
      s.segments[last].imports.tx_ops.push_back(imp);
      out->push_back(Encode("slice:backward-tx-import", s));
    }
  }

  // A prec pointing into a later epoch with no covering import: the forward
  // reference cannot resolve statically or dynamically.
  {
    EpochSlices s = honest;
    bool planted = false;
    for (auto& [vid, log] : s.segments[0].advice.var_logs) {
      for (auto& [op, entry] : log) {
        uint64_t target_rid =
            (last + 1) * (epoch_requests == 0 ? 1 : epoch_requests);  // Beyond the stream.
        entry.prec = OpRef{target_rid, 0x1, 1};
        planted = true;
        break;
      }
      if (planted) {
        break;
      }
    }
    if (planted) {
      out->push_back(Encode("slice:uncovered-forward-prec", s));
    }
  }
}

// --- Frame family: byte-level container damage ------------------------------

struct FrameSpan {
  uint64_t begin = 0;  // Frame header offset.
  uint64_t end = 0;    // One past the payload.
  size_t payload_len = 0;
};

std::vector<FrameSpan> MapFrames(const std::vector<uint8_t>& bytes) {
  std::vector<FrameSpan> frames;
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  if (reader == nullptr) {
    return frames;
  }
  SegmentRecord rec;
  while (reader->Next(&rec)) {
    if (!frames.empty()) {
      frames.back().end = rec.offset;
    }
    frames.push_back(FrameSpan{rec.offset, bytes.size(), rec.payload.size()});
  }
  return frames;
}

void BuildFrameMutations(const char* stream, const std::vector<uint8_t>& honest_bytes,
                         const std::vector<uint8_t>& other_bytes, bool mutate_trace,
                         std::vector<KsegMutation>* out) {
  auto emit = [&](std::string name, std::vector<uint8_t> mutated) {
    KsegMutation m;
    m.name = std::move(name);
    if (mutate_trace) {
      m.trace_bytes = std::move(mutated);
      m.advice_bytes = other_bytes;
    } else {
      m.trace_bytes = other_bytes;
      m.advice_bytes = std::move(mutated);
    }
    out->push_back(std::move(m));
  };
  auto tag = [&](size_t frame, const char* what) {
    return std::string("frame:") + stream + "[" + std::to_string(frame) + "]:" + what;
  };
  const std::vector<FrameSpan> frames = MapFrames(honest_bytes);
  if (frames.empty()) {
    return;
  }

  // Container header damage.
  {
    std::vector<uint8_t> b = honest_bytes;
    b[0] ^= 0xff;
    emit(std::string("frame:") + stream + ":bad-magic", std::move(b));
  }
  {
    std::vector<uint8_t> b = honest_bytes;
    b[4] ^= 0x80;  // Unsupported format version.
    emit(std::string("frame:") + stream + ":bad-version", std::move(b));
  }

  for (size_t i = 0; i < frames.size(); ++i) {
    const FrameSpan& f = frames[i];
    const uint64_t payload_begin = f.end - f.payload_len;
    // Payload byte flips (CRC catches them) at spread positions, each once
    // (a short payload, like the one-byte manifest's, has fewer than four).
    const std::set<size_t> positions = {0, f.payload_len / 3, (2 * f.payload_len) / 3,
                                        f.payload_len - 1};
    for (size_t pos : positions) {
      if (pos >= f.payload_len) {
        continue;
      }
      std::vector<uint8_t> b = honest_bytes;
      b[payload_begin + pos] ^= 0x5a;
      emit(tag(i, ("payload-flip@" + std::to_string(pos)).c_str()), std::move(b));
    }
    {
      std::vector<uint8_t> b = honest_bytes;
      b[payload_begin - 4] ^= 0x01;  // Stored CRC word.
      emit(tag(i, "bad-crc"), std::move(b));
    }
    {
      std::vector<uint8_t> b = honest_bytes;
      b[f.begin] = static_cast<uint8_t>(SegmentKind::kCheckpoint);
      emit(tag(i, "kind-checkpoint"), std::move(b));
    }
    {
      std::vector<uint8_t> b = honest_bytes;
      b[f.begin] = 99;  // Unknown kind.
      emit(tag(i, "kind-unknown"), std::move(b));
    }
    if (honest_bytes[f.begin + 2] < 0x7f) {
      // Epoch varint bump (single-byte epochs only; past the kind and flags
      // bytes): breaks the sequence, or the manifest's epoch-0 rule.
      std::vector<uint8_t> b = honest_bytes;
      b[f.begin + 2] += 1;
      emit(tag(i, "epoch-bump"), std::move(b));
    }
    {
      // Drop the frame entirely: a gap (or, for the last frame, a stream
      // ending before its peer).
      std::vector<uint8_t> b = honest_bytes;
      b.erase(b.begin() + static_cast<ptrdiff_t>(f.begin),
              b.begin() + static_cast<ptrdiff_t>(f.end));
      emit(tag(i, "drop-frame"), std::move(b));
    }
    {
      // Duplicate the frame in place.
      std::vector<uint8_t> b = honest_bytes;
      std::vector<uint8_t> frame(honest_bytes.begin() + static_cast<ptrdiff_t>(f.begin),
                                 honest_bytes.begin() + static_cast<ptrdiff_t>(f.end));
      b.insert(b.begin() + static_cast<ptrdiff_t>(f.end), frame.begin(), frame.end());
      emit(tag(i, "dup-frame"), std::move(b));
    }
    if (i + 1 < frames.size()) {
      // Swap with the next frame.
      const FrameSpan& g = frames[i + 1];
      std::vector<uint8_t> b(honest_bytes.begin(),
                             honest_bytes.begin() + static_cast<ptrdiff_t>(f.begin));
      b.insert(b.end(), honest_bytes.begin() + static_cast<ptrdiff_t>(g.begin),
               honest_bytes.begin() + static_cast<ptrdiff_t>(g.end));
      b.insert(b.end(), honest_bytes.begin() + static_cast<ptrdiff_t>(f.begin),
               honest_bytes.begin() + static_cast<ptrdiff_t>(g.begin));
      b.insert(b.end(), honest_bytes.begin() + static_cast<ptrdiff_t>(g.end),
               honest_bytes.end());
      emit(tag(i, "swap-next"), std::move(b));
    }
    {
      // Truncate at the frame boundary: this stream ends while its peer
      // continues.
      std::vector<uint8_t> b(honest_bytes.begin(),
                             honest_bytes.begin() + static_cast<ptrdiff_t>(f.begin));
      emit(tag(i, "truncate-before"), std::move(b));
    }
    if (f.payload_len > 0) {
      // Truncate mid-payload: the reader hits a short payload. Cutting at the
      // payload midpoint always removes at least the payload's final byte —
      // cutting after byte one would be a no-op on a one-byte last frame.
      const uint64_t cut = payload_begin + f.payload_len / 2;
      std::vector<uint8_t> b(honest_bytes.begin(),
                             honest_bytes.begin() + static_cast<ptrdiff_t>(cut));
      emit(tag(i, "truncate-mid"), std::move(b));
    }
  }
}

// --- Codec family: damage to storage-class compressed frames ----------------

// Parses every frame of a container into records (empty on malformed input).
std::vector<SegmentRecord> ParseFrames(const std::vector<uint8_t>& bytes) {
  std::vector<SegmentRecord> records;
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  if (reader == nullptr) {
    return records;
  }
  SegmentRecord rec;
  while (reader->Next(&rec)) {
    records.push_back(rec);
  }
  return records;
}

// Re-frames records, recomputing lengths and CRCs — the container structure
// stays honest, so the mutation lands on the codec layer (the payload
// decoder), not the framing layer.
std::vector<uint8_t> RebuildStream(const std::vector<SegmentRecord>& records) {
  SegmentWriter writer;
  for (const SegmentRecord& r : records) {
    writer.Append(r.kind, r.epoch, r.flags, r.payload);
  }
  return writer.Take();
}

void BuildCodecMutations(const char* stream, const std::vector<uint8_t>& honest_bytes,
                         const std::vector<uint8_t>& other_bytes, bool mutate_trace,
                         std::vector<KsegMutation>* out) {
  auto emit = [&](std::string name, std::vector<uint8_t> mutated) {
    KsegMutation m;
    m.name = std::move(name);
    if (mutate_trace) {
      m.trace_bytes = std::move(mutated);
      m.advice_bytes = other_bytes;
    } else {
      m.trace_bytes = other_bytes;
      m.advice_bytes = std::move(mutated);
    }
    out->push_back(std::move(m));
  };
  auto tag = [&](size_t frame, const char* what) {
    return std::string("codec:") + stream + "[" + std::to_string(frame) + "]:" + what;
  };
  const std::vector<SegmentRecord> records = ParseFrames(honest_bytes);
  for (size_t i = 0; i < records.size(); ++i) {
    const SegmentRecord& f = records[i];
    // The flags byte sits right after the kind byte and is NOT covered by the
    // CRC (which seals the stored payload), so flag tampering is a pure
    // byte-level patch — exactly the attack surface the reader must close.
    const size_t flags_at = static_cast<size_t>(f.offset) + 1;
    {
      // An unknown flag bit: the reader must refuse the whole frame rather
      // than decode the stages it does recognize.
      std::vector<uint8_t> b = honest_bytes;
      b[flags_at] |= static_cast<uint8_t>(kFrameFlagsKnownMask + 1);
      emit(tag(i, "flag-unknown-bit"), std::move(b));
    }
    if (f.flags != 0) {
      // Strip the flags: compact/blocked bytes reach the stage-off decoder.
      std::vector<uint8_t> b = honest_bytes;
      b[flags_at] = 0;
      emit(tag(i, "flag-clear"), std::move(b));
    }
    if ((f.flags & kFrameFlagBlock) != 0) {
      // Drop only the block bit: LZ4-style sequences reach the lane decoder.
      std::vector<uint8_t> b = honest_bytes;
      b[flags_at] = f.flags & static_cast<uint8_t>(~kFrameFlagBlock);
      emit(tag(i, "flag-drop-block"), std::move(b));
    }
    if (!f.payload.empty()) {
      // Truncate the stored payload with the length varint and CRC fixed up:
      // only the codec's own structural checks can catch it.
      std::vector<SegmentRecord> mutated = records;
      mutated[i].payload.pop_back();
      emit(tag(i, "truncate-stored"), RebuildStream(mutated));
    }
    if ((f.flags & kFrameFlagBlock) != 0 && !f.payload.empty()) {
      // Bump the declared decoded size leading a blocked payload (CRC fixed
      // up): the decompressor's exact-size contract is the only defense.
      std::vector<SegmentRecord> mutated = records;
      mutated[i].payload[0] = static_cast<uint8_t>(mutated[i].payload[0] + 1);
      emit(tag(i, "block-size-bump"), RebuildStream(mutated));
    }
  }
}

// --- Patch family: var-log patches no honest encoder writes ----------------

// The frame the hostile log goes into is a raw one, so the payload decoder
// (not the framing) must refuse it: KAR-SEG-002 at that frame.
void BuildPatchMutations(const Trace& trace, const Advice& advice, uint64_t epoch_requests,
                         std::vector<KsegMutation>* out) {
  const EpochSlices honest = SliceRun(trace, advice, epoch_requests);
  if (honest.segments.empty()) {
    return;
  }
  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(honest);
  const size_t target = honest.segments.size() / 2;
  const Advice& slice = honest.segments[target].advice;
  ByteWriter payload;
  EncodeAdviceSegmentPayload(slice, honest.segments[target].imports, KsegCompression{}, &payload);
  VarId vid = 0x7061746368;  // A variable the run does not have.
  while (advice.var_logs.count(vid) != 0) {
    ++vid;
  }
  auto emit = [&](const char* what, const RawVarLog& log) {
    EpochFrameWriter writer{KsegCompression{}};
    writer.AppendManifest(honest.epoch_requests);
    for (size_t i = 0; i < honest.segments.size(); ++i) {
      if (i == target) {
        writer.AppendRaw(SegmentKind::kAdvice, honest.segments[i].epoch,
                         log.SplicedInto(slice, payload.bytes()));
      } else {
        writer.AppendAdvice(honest.segments[i]);
      }
    }
    out->push_back(KsegMutation{std::string("patch:") + what, trace_bytes, writer.Take()});
  };
  for (const auto& [what, log] : MalformedPatchLogs(vid)) {
    emit(what.c_str(), log);
  }
  // A well-formed patch over a forged value decodes; the audit must catch
  // the forgery.
  for (const auto& [id, log] : advice.var_logs) {
    const std::vector<const Value*> bases = PatchBases(log);
    size_t i = 0;
    for (const auto& [op, entry] : log) {
      const Value* base = bases[i++];
      if (base == nullptr || !entry.value.is_map() ||
          DiffVarWrite(entry.value, *base).form != VarWriteForm::kMapPatch) {
        continue;
      }
      Advice forged = advice;
      ValueMap value = entry.value.AsMap();
      value["forged"] = Value(true);
      forged.var_logs[id][op].value = Value(std::move(value));
      out->push_back(EncodeRun("patch:forged-set", trace, forged, epoch_requests));
      return;
    }
  }
}

}  // namespace

std::vector<std::pair<std::string, RawVarLog>> MalformedPatchLogs(VarId vid) {
  const OpRef a{1, 0xa, 1};
  const OpRef b{1, 0xa, 2};
  const OpRef c{1, 0xa, 3};
  const Value map = MakeMap({{"k", Value(1)}, {"m", Value(2)}});
  const Value list = MakeList({Value(1), Value(2)});
  const auto log = [vid] { return RawVarLog(vid); };
  std::vector<std::pair<std::string, RawVarLog>> logs = {
      {"missing-prec", log().Full(a, map, kNilOp).MapPatch(b, {{"k", Value(3)}}, {}, c)},
      {"read-prec", log().Full(a, map, kNilOp).Read(b, a).MapPatch(c, {{"k", Value(3)}}, {}, b)},
      {"cycle", log().MapPatch(a, {{"k", Value(3)}}, {}, b).MapPatch(b, {}, {"k"}, a)},
      {"self-prec", log().Append(a, {Value(3)}, a)},
      {"map-patch-over-list", log().Full(a, list, kNilOp).MapPatch(b, {{"k", Value(3)}}, {}, a)},
      {"append-over-map", log().Full(a, map, kNilOp).Append(b, {Value(3)}, a)},
      {"append-over-scalar", log().Full(a, Value(7), kNilOp).Append(b, {Value(3)}, a)},
      {"erase-absent", log().Full(a, map, kNilOp).MapPatch(b, {}, {"z"}, a)},
      {"erase-absent-first", log().Full(a, map, kNilOp).MapPatch(b, {}, {"a"}, a)},
      {"set-order",
       log().Full(a, map, kNilOp).MapPatch(b, {{"m", Value(5)}, {"k", Value(3)}}, {}, a)},
      {"set-twice",
       log().Full(a, map, kNilOp).MapPatch(b, {{"k", Value(5)}, {"k", Value(3)}}, {}, a)},
      {"erase-order", log().Full(a, map, kNilOp).MapPatch(b, {}, {"m", "k"}, a)},
      {"set-and-erase", log().Full(a, map, kNilOp).MapPatch(b, {{"k", Value(3)}}, {"k"}, a)},
      {"set-identical", log().Full(a, map, kNilOp).MapPatch(b, {{"k", Value(1)}}, {}, a)},
  };
  // Each append copies the whole list: quadratic copies from linear input.
  RawVarLog chain = log();
  chain.Full(a, list, kNilOp);
  for (OpNum i = 2; i <= 4000; ++i) {
    chain.Append(OpRef{1, 0xa, i}, {Value(static_cast<int64_t>(i))}, OpRef{1, 0xa, i - 1});
  }
  logs.emplace_back("copy-budget", std::move(chain));
  return logs;
}

RawVarLog& RawVarLog::Read(const OpRef& op, const OpRef& prec) {
  Entry(op, static_cast<uint8_t>(VarLogEntry::Kind::kRead));
  SerializeOpRef(prec, &entries_);
  return *this;
}

RawVarLog& RawVarLog::Full(const OpRef& op, const Value& value, const OpRef& prec) {
  Entry(op, static_cast<uint8_t>(VarWriteForm::kFull));
  entries_.WriteValue(value);
  SerializeOpRef(prec, &entries_);
  return *this;
}

RawVarLog& RawVarLog::MapPatch(const OpRef& op,
                               const std::vector<std::pair<std::string, Value>>& sets,
                               const std::vector<std::string>& erases, const OpRef& prec) {
  Entry(op, static_cast<uint8_t>(VarWriteForm::kMapPatch));
  entries_.WriteVarint(sets.size());
  for (const auto& [key, value] : sets) {
    entries_.WriteString(key);
    entries_.WriteValue(value);
  }
  entries_.WriteVarint(erases.size());
  for (const std::string& key : erases) {
    entries_.WriteString(key);
  }
  SerializeOpRef(prec, &entries_);
  return *this;
}

RawVarLog& RawVarLog::Append(const OpRef& op, const std::vector<Value>& items,
                             const OpRef& prec) {
  Entry(op, static_cast<uint8_t>(VarWriteForm::kListAppend));
  entries_.WriteVarint(items.size());
  for (const Value& item : items) {
    entries_.WriteValue(item);
  }
  SerializeOpRef(prec, &entries_);
  return *this;
}

void RawVarLog::Entry(const OpRef& op, uint8_t kind) {
  ++count_;
  SerializeOpRef(op, &entries_);
  entries_.WriteByte(kind);
}

std::vector<uint8_t> RawVarLog::AdviceBytes() const {
  Advice empty;
  ByteWriter payload;
  empty.Serialize(&payload);
  return SplicedInto(empty, payload.bytes());
}

std::vector<uint8_t> RawVarLog::SplicedInto(const Advice& advice,
                                            const std::vector<uint8_t>& payload) const {
  const Advice::SizeBreakdown b = advice.MeasureSize();
  const size_t section = b.tags + b.handler_logs;
  ByteWriter old_count;
  old_count.WriteVarint(advice.var_logs.size());
  ByteWriter out;
  out.WriteBytes(payload.data(), section);
  out.WriteVarint(advice.var_logs.size() + 1);
  // The advice's own logs, then this one.
  out.WriteBytes(payload.data() + section + old_count.size(), b.var_logs - old_count.size());
  out.WriteFixed64(vid_);
  out.WriteVarint(count_);
  out.WriteBytes(entries_.bytes().data(), entries_.size());
  out.WriteBytes(payload.data() + section + b.var_logs, payload.size() - section - b.var_logs);
  return out.Take();
}

std::vector<KsegMutation> BuildMutationCorpus(const Trace& trace, const Advice& advice,
                                              uint64_t epoch_requests) {
  std::vector<KsegMutation> corpus;
  BuildComponentMutations(trace, advice, epoch_requests, &corpus);
  BuildSliceMutations(trace, advice, epoch_requests, &corpus);
  EpochSlices honest = SliceRun(trace, advice, epoch_requests);
  std::vector<uint8_t> trace_bytes = EncodeTraceSegments(honest);
  std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(honest);
  BuildFrameMutations("trace", trace_bytes, advice_bytes, /*mutate_trace=*/true, &corpus);
  BuildFrameMutations("advice", advice_bytes, trace_bytes, /*mutate_trace=*/false, &corpus);
  const KsegCompression all = KsegCompression::All();
  std::vector<uint8_t> packed_trace = EncodeTraceSegments(honest, all);
  std::vector<uint8_t> packed_advice = EncodeAdviceSegments(honest, all);
  BuildCodecMutations("trace", packed_trace, packed_advice, /*mutate_trace=*/true, &corpus);
  BuildCodecMutations("advice", packed_advice, packed_trace, /*mutate_trace=*/false, &corpus);
  BuildPatchMutations(trace, advice, epoch_requests, &corpus);
  return corpus;
}

}  // namespace karousos
