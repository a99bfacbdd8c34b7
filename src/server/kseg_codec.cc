#include "src/server/kseg_codec.h"

#include <string>
#include <utility>

namespace karousos {

namespace {

// Encoder context: field-level codecs chosen by the stage set. The body is
// written to a scratch buffer first so the dictionaries (populated during the
// body pass, first-use order) can be serialized ahead of it.
class CompactEncoder {
 public:
  explicit CompactEncoder(const KsegCompression& c) : c_(c) {}

  // A 64-bit digest (hid/vid/tid/function/event/tag): dict ref or fixed64.
  void Id(uint64_t v) {
    if (c_.dict) {
      body_.WriteVarint(ids_.Ref(v));
    } else {
      body_.WriteFixed64(v);
    }
  }
  // A lane value: zigzag delta against the lane's running predecessor.
  void Lane(uint64_t v, uint64_t* prev) {
    if (c_.lanes) {
      WriteDelta(&body_, v, prev);
    } else {
      body_.WriteVarint(v);
    }
  }
  // A cross-reference rid, coded relative to its anchor (not a running lane:
  // each reference resets to its own anchor coordinate).
  void RelRid(uint64_t v, uint64_t anchor) {
    if (c_.lanes) {
      uint64_t prev = anchor;
      WriteDelta(&body_, v, &prev);
    } else {
      body_.WriteVarint(v);
    }
  }
  void Str(const std::string& s) {
    if (c_.dict) {
      body_.WriteVarint(strs_.Ref(s));
    } else {
      body_.WriteString(s);
    }
  }
  void Varint(uint64_t v) { body_.WriteVarint(v); }
  void Byte(uint8_t b) { body_.WriteByte(b); }
  void Bool(bool b) { body_.WriteBool(b); }

  // Value with dictionary-interned strings and map keys (plain serde
  // encoding when the dict stage is off).
  void Val(const Value& v) {
    if (!c_.dict) {
      body_.WriteValue(v);
      return;
    }
    body_.WriteByte(static_cast<uint8_t>(v.kind()));
    switch (v.kind()) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kBool:
        body_.WriteBool(v.AsBool());
        break;
      case Value::Kind::kInt:
        body_.WriteVarint(ZigzagEncode(v.AsInt()));
        break;
      case Value::Kind::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        __builtin_memcpy(&bits, &d, sizeof(bits));
        body_.WriteFixed64(bits);
        break;
      }
      case Value::Kind::kString:
        Str(v.AsString());
        break;
      case Value::Kind::kList:
        body_.WriteVarint(v.AsList().size());
        for (const Value& item : v.AsList()) {
          Val(item);
        }
        break;
      case Value::Kind::kMap:
        body_.WriteVarint(v.AsMap().size());
        for (const auto& [key, item] : v.AsMap()) {
          Str(key);
          Val(item);
        }
        break;
    }
  }

  void Finish(ByteWriter* out) {
    if (c_.dict) {
      ids_.Serialize(out);
      strs_.Serialize(out);
    }
    out->WriteBytes(body_.bytes().data(), body_.size());
  }

 private:
  KsegCompression c_;
  U64DictBuilder ids_;
  StringDictBuilder strs_;
  ByteWriter body_;
};

// Decoder context: the exact inverse. Every accessor returns nullopt-style
// failure through `ok_`; callers bail on the first false.
class CompactDecoder {
 public:
  CompactDecoder(const uint8_t* data, size_t size, const KsegCompression& c)
      : in_(data, size), c_(c) {}

  bool Init() {
    if (!c_.dict) {
      return true;
    }
    auto ids = ReadU64Dict(&in_);
    if (!ids) {
      return false;
    }
    auto strs = ReadStringDict(&in_);
    if (!strs) {
      return false;
    }
    ids_ = std::move(*ids);
    strs_ = std::move(*strs);
    return true;
  }

  std::optional<uint64_t> Id() {
    if (!c_.dict) {
      return in_.ReadFixed64();
    }
    auto ref = in_.ReadVarint();
    if (!ref || *ref >= ids_.size()) {
      return std::nullopt;
    }
    return ids_[static_cast<size_t>(*ref)];
  }
  std::optional<uint64_t> Lane(uint64_t* prev) {
    return c_.lanes ? ReadDelta(&in_, prev) : in_.ReadVarint();
  }
  std::optional<uint64_t> RelRid(uint64_t anchor) {
    if (!c_.lanes) {
      return in_.ReadVarint();
    }
    uint64_t prev = anchor;
    return ReadDelta(&in_, &prev);
  }
  std::optional<std::string> Str() {
    if (!c_.dict) {
      return in_.ReadString();
    }
    auto ref = in_.ReadVarint();
    if (!ref || *ref >= strs_.size()) {
      return std::nullopt;
    }
    return strs_[static_cast<size_t>(*ref)];
  }
  std::optional<uint64_t> Varint() { return in_.ReadVarint(); }
  std::optional<uint8_t> Byte() { return in_.ReadByte(); }
  std::optional<bool> Bool() { return in_.ReadBool(); }

  // `depth` counts the lists/maps already open around the value; nesting
  // past kMaxValueDepth is malformed, exactly as in ByteReader::ReadValue.
  std::optional<Value> Val(size_t depth = 0) {
    if (!c_.dict) {
      return in_.ReadValue();
    }
    auto kind_byte = in_.ReadByte();
    if (!kind_byte || *kind_byte > static_cast<uint8_t>(Value::Kind::kMap)) {
      return std::nullopt;
    }
    switch (static_cast<Value::Kind>(*kind_byte)) {
      case Value::Kind::kNull:
        return Value();
      case Value::Kind::kBool: {
        auto b = in_.ReadBool();
        if (!b) {
          return std::nullopt;
        }
        return Value(*b);
      }
      case Value::Kind::kInt: {
        auto z = in_.ReadVarint();
        if (!z) {
          return std::nullopt;
        }
        return Value(ZigzagDecode(*z));
      }
      case Value::Kind::kDouble: {
        auto bits = in_.ReadFixed64();
        if (!bits) {
          return std::nullopt;
        }
        double d;
        __builtin_memcpy(&d, &*bits, sizeof(d));
        return Value(d);
      }
      case Value::Kind::kString: {
        auto s = Str();
        if (!s) {
          return std::nullopt;
        }
        return Value(std::move(*s));
      }
      case Value::Kind::kList: {
        auto n = in_.ReadVarint();
        if (!n || !in_.CanHold(*n, 1) || depth == kMaxValueDepth) {
          return std::nullopt;
        }
        ValueList items;
        items.reserve(static_cast<size_t>(*n));
        for (uint64_t i = 0; i < *n; ++i) {
          auto item = Val(depth + 1);
          if (!item) {
            return std::nullopt;
          }
          items.push_back(std::move(*item));
        }
        return Value(std::move(items));
      }
      case Value::Kind::kMap: {
        auto n = in_.ReadVarint();
        if (!n || !in_.CanHold(*n, 2) || depth == kMaxValueDepth) {
          return std::nullopt;
        }
        ValueMap m;
        for (uint64_t i = 0; i < *n; ++i) {
          auto key = Str();
          if (!key) {
            return std::nullopt;
          }
          auto item = Val(depth + 1);
          if (!item) {
            return std::nullopt;
          }
          m.emplace(std::move(*key), std::move(*item));
        }
        return Value(std::move(m));
      }
    }
    return std::nullopt;
  }

  // ByteReader::CanHold over the body. Every field the transcoder writes is
  // at least one byte (a dictionary reference or a varint), so callers pass
  // a field count as `min_bytes`.
  bool CanHold(uint64_t count, size_t min_bytes) const { return in_.CanHold(count, min_bytes); }
  bool AtEnd() const { return in_.AtEnd(); }

 private:
  ByteReader in_;
  KsegCompression c_;
  std::vector<uint64_t> ids_;
  std::vector<std::string> strs_;
};

// --- Advice body, component by component ------------------------------------
// The component order and per-entry field order mirror the raw grammar in
// src/server/advice.cc exactly; only the field codecs differ.

void EncodeAdviceBody(const Advice& a, CompactEncoder* e) {
  e->Varint(a.tags.size());
  uint64_t prev_rid = 0;
  for (const auto& [rid, tag] : a.tags) {
    e->Lane(rid, &prev_rid);
    e->Id(tag);
  }

  e->Varint(a.handler_logs.size());
  prev_rid = 0;
  for (const auto& [rid, log] : a.handler_logs) {
    e->Lane(rid, &prev_rid);
    e->Varint(log.size());
    uint64_t prev_opnum = 0;
    for (const HandlerLogEntry& entry : log) {
      e->Byte(static_cast<uint8_t>(entry.kind));
      e->Id(entry.hid);
      e->Lane(entry.opnum, &prev_opnum);
      e->Id(entry.event);
      if (entry.kind != HandlerLogEntry::Kind::kEmit) {
        e->Id(entry.function);
      }
    }
  }

  e->Varint(a.var_logs.size());
  for (const auto& [vid, log] : a.var_logs) {
    e->Id(vid);
    e->Varint(log.size());
    uint64_t prev_op_rid = 0;
    uint64_t prev_op_opnum = 0;
    for (const auto& [op, entry] : log) {
      e->Lane(op.rid, &prev_op_rid);
      e->Id(op.hid);
      e->Lane(op.opnum, &prev_op_opnum);
      e->Byte(static_cast<uint8_t>(entry.kind));
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        e->Val(entry.value);
      }
      // The dictating/overwritten op clusters near the entry's own request.
      e->RelRid(entry.prec.rid, op.rid);
      e->Id(entry.prec.hid);
      e->Varint(entry.prec.opnum);
    }
  }

  e->Varint(a.tx_logs.size());
  prev_rid = 0;
  for (const auto& [txn, log] : a.tx_logs) {
    e->Lane(txn.rid, &prev_rid);
    e->Id(txn.tid);
    e->Varint(log.size());
    uint64_t prev_opnum = 0;
    for (const TxOperation& op : log) {
      e->Byte(static_cast<uint8_t>(op.type));
      e->Id(op.hid);
      e->Lane(op.opnum, &prev_opnum);
      if (op.type == TxOpType::kPut) {
        e->Str(op.key);
        e->Val(op.put_value);
      } else if (op.type == TxOpType::kGet) {
        e->Str(op.key);
        e->Bool(op.get_found);
        if (op.get_found) {
          e->RelRid(op.get_from.rid, txn.rid);
          e->Id(op.get_from.tid);
          e->Varint(op.get_from.index);
        }
      }
    }
  }

  e->Varint(a.write_order.size());
  prev_rid = 0;
  for (const TxOpRef& w : a.write_order) {
    e->Lane(w.rid, &prev_rid);
    e->Id(w.tid);
    e->Varint(w.index);
  }

  e->Varint(a.response_emitted_by.size());
  prev_rid = 0;
  for (const auto& [rid, by] : a.response_emitted_by) {
    e->Lane(rid, &prev_rid);
    e->Id(by.first);
    e->Varint(by.second);
  }

  e->Varint(a.opcounts.size());
  prev_rid = 0;
  for (const auto& [key, count] : a.opcounts) {
    e->Lane(key.first, &prev_rid);
    e->Id(key.second);
    e->Varint(count);
  }

  e->Varint(a.nondet.size());
  prev_rid = 0;
  for (const auto& [op, record] : a.nondet) {
    e->Lane(op.rid, &prev_rid);
    e->Id(op.hid);
    e->Varint(op.opnum);
    e->Byte(static_cast<uint8_t>(record.kind));
    if (record.kind == NondetRecord::Kind::kValue) {
      e->Val(record.value);
    }
  }
}

std::optional<Advice> DecodeAdviceBody(CompactDecoder* d) {
  Advice a;

  auto n_tags = d->Varint();
  if (!n_tags) {
    return std::nullopt;
  }
  uint64_t prev_rid = 0;
  for (uint64_t i = 0; i < *n_tags; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto tag = d->Id();
    if (!rid || !tag) {
      return std::nullopt;
    }
    a.tags[*rid] = *tag;
  }

  auto n_hls = d->Varint();
  if (!n_hls) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_hls; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto n = d->Varint();
    // Kind, hid, opnum, event.
    if (!rid || !n || !d->CanHold(*n, 4)) {
      return std::nullopt;
    }
    std::vector<HandlerLogEntry> log;
    log.reserve(static_cast<size_t>(*n));
    uint64_t prev_opnum = 0;
    for (uint64_t j = 0; j < *n; ++j) {
      HandlerLogEntry entry;
      auto kind = d->Byte();
      if (!kind || *kind > 2) {
        return std::nullopt;
      }
      auto hid = d->Id();
      auto opnum = d->Lane(&prev_opnum);
      auto event = d->Id();
      if (!hid || !opnum || *opnum > kOpNumInf || !event) {
        return std::nullopt;
      }
      entry.kind = static_cast<HandlerLogEntry::Kind>(*kind);
      entry.hid = *hid;
      entry.opnum = static_cast<OpNum>(*opnum);
      entry.event = *event;
      if (entry.kind != HandlerLogEntry::Kind::kEmit) {
        auto function = d->Id();
        if (!function) {
          return std::nullopt;
        }
        entry.function = *function;
      }
      log.push_back(entry);
    }
    a.handler_logs[*rid] = std::move(log);
  }

  auto n_vls = d->Varint();
  if (!n_vls) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_vls; ++i) {
    auto vid = d->Id();
    auto n = d->Varint();
    // Op rid, hid, opnum, kind, prec rid, hid, opnum.
    if (!vid || !n || !d->CanHold(*n, 7)) {
      return std::nullopt;
    }
    VarLog log;
    uint64_t prev_op_rid = 0;
    uint64_t prev_op_opnum = 0;
    for (uint64_t j = 0; j < *n; ++j) {
      auto op_rid = d->Lane(&prev_op_rid);
      auto op_hid = d->Id();
      auto op_opnum = d->Lane(&prev_op_opnum);
      auto kind = d->Byte();
      if (!op_rid || !op_hid || !op_opnum || *op_opnum > kOpNumInf || !kind || *kind > 1) {
        return std::nullopt;
      }
      OpRef op{*op_rid, *op_hid, static_cast<OpNum>(*op_opnum)};
      VarLogEntry entry;
      entry.kind = static_cast<VarLogEntry::Kind>(*kind);
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        auto value = d->Val();
        if (!value) {
          return std::nullopt;
        }
        entry.value = std::move(*value);
      }
      auto prec_rid = d->RelRid(op.rid);
      auto prec_hid = d->Id();
      auto prec_opnum = d->Varint();
      if (!prec_rid || !prec_hid || !prec_opnum || *prec_opnum > kOpNumInf) {
        return std::nullopt;
      }
      entry.prec = OpRef{*prec_rid, *prec_hid, static_cast<OpNum>(*prec_opnum)};
      log.emplace_hint(log.end(), op, std::move(entry));
    }
    a.var_logs[*vid] = std::move(log);
  }

  auto n_txls = d->Varint();
  if (!n_txls) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_txls; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto tid = d->Id();
    auto n = d->Varint();
    // Type, hid, opnum.
    if (!rid || !tid || !n || !d->CanHold(*n, 3)) {
      return std::nullopt;
    }
    TransactionLog log;
    log.reserve(static_cast<size_t>(*n));
    uint64_t prev_opnum = 0;
    for (uint64_t j = 0; j < *n; ++j) {
      TxOperation op;
      auto type = d->Byte();
      if (!type || *type > static_cast<uint8_t>(TxOpType::kGet)) {
        return std::nullopt;
      }
      auto hid = d->Id();
      auto opnum = d->Lane(&prev_opnum);
      if (!hid || !opnum || *opnum > kOpNumInf) {
        return std::nullopt;
      }
      op.type = static_cast<TxOpType>(*type);
      op.hid = *hid;
      op.opnum = static_cast<OpNum>(*opnum);
      if (op.type == TxOpType::kPut) {
        auto key = d->Str();
        auto value = d->Val();
        if (!key || !value) {
          return std::nullopt;
        }
        op.key = std::move(*key);
        op.put_value = std::move(*value);
      } else if (op.type == TxOpType::kGet) {
        auto key = d->Str();
        auto found = d->Bool();
        if (!key || !found) {
          return std::nullopt;
        }
        op.key = std::move(*key);
        op.get_found = *found;
        if (op.get_found) {
          auto from_rid = d->RelRid(*rid);
          auto from_tid = d->Id();
          auto from_index = d->Varint();
          if (!from_rid || !from_tid || !from_index) {
            return std::nullopt;
          }
          op.get_from = TxOpRef{*from_rid, *from_tid, static_cast<uint32_t>(*from_index)};
        }
      }
      log.push_back(std::move(op));
    }
    a.tx_logs[TxnKey{*rid, *tid}] = std::move(log);
  }

  auto n_wo = d->Varint();
  // Rid, tid, index.
  if (!n_wo || !d->CanHold(*n_wo, 3)) {
    return std::nullopt;
  }
  a.write_order.reserve(static_cast<size_t>(*n_wo));
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_wo; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto tid = d->Id();
    auto index = d->Varint();
    if (!rid || !tid || !index) {
      return std::nullopt;
    }
    a.write_order.push_back(TxOpRef{*rid, *tid, static_cast<uint32_t>(*index)});
  }

  auto n_reb = d->Varint();
  if (!n_reb) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_reb; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = d->Varint();
    if (!rid || !hid || !opnum) {
      return std::nullopt;
    }
    a.response_emitted_by[*rid] = {*hid, static_cast<OpNum>(*opnum)};
  }

  auto n_oc = d->Varint();
  if (!n_oc) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_oc; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto count = d->Varint();
    if (!rid || !hid || !count) {
      return std::nullopt;
    }
    a.opcounts[{*rid, *hid}] = static_cast<OpNum>(*count);
  }

  auto n_nd = d->Varint();
  if (!n_nd) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_nd; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = d->Varint();
    auto kind = d->Byte();
    if (!rid || !hid || !opnum || *opnum > kOpNumInf || !kind || *kind > 1) {
      return std::nullopt;
    }
    NondetRecord record;
    record.kind = static_cast<NondetRecord::Kind>(*kind);
    if (record.kind == NondetRecord::Kind::kValue) {
      auto value = d->Val();
      if (!value) {
        return std::nullopt;
      }
      record.value = std::move(*value);
    }
    a.nondet.emplace(OpRef{*rid, *hid, static_cast<OpNum>(*opnum)}, std::move(record));
  }

  return a;
}

void EncodeImports(const ContinuityImports& imports, CompactEncoder* e) {
  e->Varint(imports.tx_ops.size());
  uint64_t prev_rid = 0;
  for (const ContinuityImports::TxOpImport& imp : imports.tx_ops) {
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
  e->Varint(imports.var_entries.size());
  prev_rid = 0;
  for (const ContinuityImports::VarImport& imp : imports.var_entries) {
    e->Id(imp.vid);
    e->Lane(imp.op.rid, &prev_rid);
    e->Id(imp.op.hid);
    e->Varint(imp.op.opnum);
    e->Bool(imp.present);
    e->Byte(imp.kind);
    e->Val(imp.value);
  }
}

std::optional<ContinuityImports> DecodeImports(CompactDecoder* d) {
  ContinuityImports imports;
  auto tx_count = d->Varint();
  // Rid, tid, index, two bools, type, key, value, hid, opnum.
  if (!tx_count || !d->CanHold(*tx_count, 10)) {
    return std::nullopt;
  }
  imports.tx_ops.reserve(static_cast<size_t>(*tx_count));
  uint64_t prev_rid = 0;
  for (uint64_t i = 0; i < *tx_count; ++i) {
    ContinuityImports::TxOpImport imp;
    auto rid = d->Lane(&prev_rid);
    auto tid = d->Id();
    auto index = d->Varint();
    auto txn_present = d->Bool();
    auto op_present = d->Bool();
    auto type = d->Byte();
    auto key = d->Str();
    auto value = d->Val();
    auto hid = d->Id();
    auto opnum = d->Varint();
    if (!rid || !tid || !index || !txn_present || !op_present || !type || !key || !value ||
        !hid || !opnum) {
      return std::nullopt;
    }
    imp.ref = TxOpRef{*rid, *tid, static_cast<uint32_t>(*index)};
    imp.txn_present = *txn_present;
    imp.op_present = *op_present;
    imp.type = *type;
    imp.key = std::move(*key);
    imp.value = std::move(*value);
    imp.hid = *hid;
    imp.opnum = static_cast<OpNum>(*opnum);
    imports.tx_ops.push_back(std::move(imp));
  }
  auto var_count = d->Varint();
  // Vid, rid, hid, opnum, present, kind, value.
  if (!var_count || !d->CanHold(*var_count, 7)) {
    return std::nullopt;
  }
  imports.var_entries.reserve(static_cast<size_t>(*var_count));
  prev_rid = 0;
  for (uint64_t i = 0; i < *var_count; ++i) {
    ContinuityImports::VarImport imp;
    auto vid = d->Id();
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = d->Varint();
    auto present = d->Bool();
    auto kind = d->Byte();
    auto value = d->Val();
    if (!vid || !rid || !hid || !opnum || *opnum > kOpNumInf || !present || !kind || !value) {
      return std::nullopt;
    }
    imp.vid = *vid;
    imp.op = OpRef{*rid, *hid, static_cast<OpNum>(*opnum)};
    imp.present = *present;
    imp.kind = *kind;
    imp.value = std::move(*value);
    imports.var_entries.push_back(std::move(imp));
  }
  return imports;
}

}  // namespace

void EncodeCompactTracePayload(const std::vector<TraceEvent>& events, const KsegCompression& c,
                               ByteWriter* out) {
  CompactEncoder e(c);
  e.Varint(events.size());
  uint64_t prev_rid = 0;
  for (const TraceEvent& ev : events) {
    e.Byte(static_cast<uint8_t>(ev.kind));
    e.Lane(ev.rid, &prev_rid);
    e.Val(ev.payload);
  }
  e.Finish(out);
}

std::optional<std::vector<TraceEvent>> DecodeCompactTracePayload(const uint8_t* data, size_t size,
                                                                 const KsegCompression& c) {
  CompactDecoder d(data, size, c);
  if (!d.Init()) {
    return std::nullopt;
  }
  auto n = d.Varint();
  // Kind, rid, payload.
  if (!n || !d.CanHold(*n, 3)) {
    return std::nullopt;
  }
  std::vector<TraceEvent> events;
  events.reserve(static_cast<size_t>(*n));
  uint64_t prev_rid = 0;
  for (uint64_t i = 0; i < *n; ++i) {
    auto kind = d.Byte();
    auto rid = d.Lane(&prev_rid);
    auto payload = d.Val();
    if (!kind || *kind > 1 || !rid || !payload) {
      return std::nullopt;
    }
    events.push_back(
        TraceEvent{static_cast<TraceEvent::Kind>(*kind), *rid, std::move(*payload)});
  }
  if (!d.AtEnd()) {
    return std::nullopt;
  }
  return events;
}

void EncodeCompactAdvicePayload(const Advice& advice, const ContinuityImports& imports,
                                const KsegCompression& c, ByteWriter* out) {
  CompactEncoder e(c);
  EncodeAdviceBody(advice, &e);
  EncodeImports(imports, &e);
  e.Finish(out);
}

std::optional<AdviceSegmentPayload> DecodeCompactAdvicePayload(const uint8_t* data, size_t size,
                                                               const KsegCompression& c) {
  CompactDecoder d(data, size, c);
  if (!d.Init()) {
    return std::nullopt;
  }
  auto advice = DecodeAdviceBody(&d);
  if (!advice) {
    return std::nullopt;
  }
  auto imports = DecodeImports(&d);
  if (!imports || !d.AtEnd()) {
    return std::nullopt;
  }
  AdviceSegmentPayload out;
  out.advice = std::move(*advice);
  out.imports = std::move(*imports);
  return out;
}

}  // namespace karousos
