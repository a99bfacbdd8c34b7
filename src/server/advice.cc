#include "src/server/advice.h"

namespace karousos {

void SerializeOpRef(const OpRef& op, ByteWriter* out) {
  out->WriteVarint(op.rid);
  out->WriteFixed64(op.hid);
  out->WriteVarint(op.opnum);
}

std::optional<OpRef> DeserializeOpRef(ByteReader* in) {
  auto rid = in->ReadVarint();
  auto hid = in->ReadFixed64();
  auto opnum = in->ReadVarint();
  if (!rid || !hid || !opnum || *opnum > kOpNumInf) {
    return std::nullopt;
  }
  return OpRef{*rid, *hid, static_cast<OpNum>(*opnum)};
}

void SerializeTxOpRef(const TxOpRef& op, ByteWriter* out) {
  out->WriteVarint(op.rid);
  out->WriteFixed64(op.tid);
  out->WriteVarint(op.index);
}

std::optional<TxOpRef> DeserializeTxOpRef(ByteReader* in) {
  auto rid = in->ReadVarint();
  auto tid = in->ReadFixed64();
  auto index = in->ReadVarint();
  if (!rid || !tid || !index) {
    return std::nullopt;
  }
  return TxOpRef{*rid, *tid, static_cast<uint32_t>(*index)};
}

namespace {

void SerializeTags(const std::map<RequestId, uint64_t>& tags, ByteWriter* out) {
  out->WriteVarint(tags.size());
  for (const auto& [rid, tag] : tags) {
    out->WriteVarint(rid);
    out->WriteFixed64(tag);
  }
}

void SerializeHandlerLogs(const std::map<RequestId, std::vector<HandlerLogEntry>>& logs,
                          ByteWriter* out) {
  out->WriteVarint(logs.size());
  for (const auto& [rid, log] : logs) {
    out->WriteVarint(rid);
    out->WriteVarint(log.size());
    for (const HandlerLogEntry& e : log) {
      out->WriteByte(static_cast<uint8_t>(e.kind));
      out->WriteFixed64(e.hid);
      out->WriteVarint(e.opnum);
      out->WriteFixed64(e.event);
      if (e.kind != HandlerLogEntry::Kind::kEmit) {
        out->WriteFixed64(e.function);
      }
    }
  }
}

void SerializeVarLogs(const std::map<VarId, VarLog>& logs, ByteWriter* out) {
  out->WriteVarint(logs.size());
  for (const auto& [vid, log] : logs) {
    out->WriteFixed64(vid);
    out->WriteVarint(log.size());
    for (const auto& [op, entry] : log) {
      SerializeOpRef(op, out);
      out->WriteByte(static_cast<uint8_t>(entry.kind));
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        out->WriteValue(entry.value);
      }
      SerializeOpRef(entry.prec, out);
    }
  }
}

void SerializeTxLogs(const TransactionLogs& logs, ByteWriter* out) {
  out->WriteVarint(logs.size());
  for (const auto& [txn, log] : logs) {
    out->WriteVarint(txn.rid);
    out->WriteFixed64(txn.tid);
    out->WriteVarint(log.size());
    for (const TxOperation& op : log) {
      out->WriteByte(static_cast<uint8_t>(op.type));
      out->WriteFixed64(op.hid);
      out->WriteVarint(op.opnum);
      if (op.type == TxOpType::kPut) {
        out->WriteString(op.key);
        out->WriteValue(op.put_value);
      } else if (op.type == TxOpType::kGet) {
        out->WriteString(op.key);
        out->WriteBool(op.get_found);
        if (op.get_found) {
          SerializeTxOpRef(op.get_from, out);
        }
      }
    }
  }
}

// Single serialization pass shared by Serialize and MeasureSize: the
// component boundaries are noted as writer offsets while encoding, so
// measuring the breakdown no longer costs a second (or sixth) full encode.
void SerializeWithBreakdown(const Advice& a, ByteWriter* out, Advice::SizeBreakdown* breakdown) {
  const size_t start = out->size();
  SerializeTags(a.tags, out);
  const size_t after_tags = out->size();
  SerializeHandlerLogs(a.handler_logs, out);
  const size_t after_hls = out->size();
  SerializeVarLogs(a.var_logs, out);
  const size_t after_vls = out->size();
  SerializeTxLogs(a.tx_logs, out);
  const size_t after_txls = out->size();
  out->WriteVarint(a.write_order.size());
  for (const TxOpRef& w : a.write_order) {
    SerializeTxOpRef(w, out);
  }
  const size_t after_wo = out->size();
  out->WriteVarint(a.response_emitted_by.size());
  for (const auto& [rid, by] : a.response_emitted_by) {
    out->WriteVarint(rid);
    out->WriteFixed64(by.first);
    out->WriteVarint(by.second);
  }
  out->WriteVarint(a.opcounts.size());
  for (const auto& [key, count] : a.opcounts) {
    out->WriteVarint(key.first);
    out->WriteFixed64(key.second);
    out->WriteVarint(count);
  }
  out->WriteVarint(a.nondet.size());
  for (const auto& [op, record] : a.nondet) {
    SerializeOpRef(op, out);
    out->WriteByte(static_cast<uint8_t>(record.kind));
    if (record.kind == NondetRecord::Kind::kValue) {
      out->WriteValue(record.value);
    }
  }
  if (breakdown != nullptr) {
    breakdown->tags = after_tags - start;
    breakdown->handler_logs = after_hls - after_tags;
    breakdown->var_logs = after_vls - after_hls;
    breakdown->tx_logs = after_txls - after_vls;
    breakdown->write_order = after_wo - after_txls;
    breakdown->other = out->size() - after_wo;
    breakdown->total = out->size() - start;
  }
}

}  // namespace

void Advice::Serialize(ByteWriter* out) const {
  SerializeWithBreakdown(*this, out, nullptr);
}

std::optional<Advice> Advice::Deserialize(ByteReader* in) {
  Advice a;
  auto n_tags = in->ReadVarint();
  if (!n_tags) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_tags; ++i) {
    auto rid = in->ReadVarint();
    auto tag = in->ReadFixed64();
    if (!rid || !tag) {
      return std::nullopt;
    }
    a.tags[*rid] = *tag;
  }
  auto n_hls = in->ReadVarint();
  if (!n_hls) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_hls; ++i) {
    auto rid = in->ReadVarint();
    auto n = in->ReadVarint();
    // An entry is at least kind, hid, opnum and event: 1 + 8 + 1 + 8 bytes.
    if (!rid || !n || !in->CanHold(*n, 18)) {
      return std::nullopt;
    }
    std::vector<HandlerLogEntry> log;
    log.reserve(*n);
    for (uint64_t j = 0; j < *n; ++j) {
      HandlerLogEntry e;
      auto kind = in->ReadByte();
      auto hid = in->ReadFixed64();
      auto opnum = in->ReadVarint();
      auto event = in->ReadFixed64();
      if (!kind || *kind > 2 || !hid || !opnum || !event) {
        return std::nullopt;
      }
      e.kind = static_cast<HandlerLogEntry::Kind>(*kind);
      e.hid = *hid;
      e.opnum = static_cast<OpNum>(*opnum);
      e.event = *event;
      if (e.kind != HandlerLogEntry::Kind::kEmit) {
        auto function = in->ReadFixed64();
        if (!function) {
          return std::nullopt;
        }
        e.function = *function;
      }
      log.push_back(e);
    }
    a.handler_logs[*rid] = std::move(log);
  }
  auto n_vls = in->ReadVarint();
  if (!n_vls) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_vls; ++i) {
    auto vid = in->ReadFixed64();
    auto n = in->ReadVarint();
    // An entry is at least op, kind and prec: 10 + 1 + 10 bytes.
    if (!vid || !n || !in->CanHold(*n, 21)) {
      return std::nullopt;
    }
    VarLog log;
    for (uint64_t j = 0; j < *n; ++j) {
      auto op = DeserializeOpRef(in);
      auto kind = in->ReadByte();
      if (!op || !kind || *kind > 1) {
        return std::nullopt;
      }
      VarLogEntry entry;
      entry.kind = static_cast<VarLogEntry::Kind>(*kind);
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        auto value = in->ReadValue();
        if (!value) {
          return std::nullopt;
        }
        entry.value = std::move(*value);
      }
      auto prec = DeserializeOpRef(in);
      if (!prec) {
        return std::nullopt;
      }
      entry.prec = *prec;
      // Honest advice arrives key-sorted (serialized from a std::map), so the
      // end hint makes each insert amortized O(1); duplicate keys still keep
      // the first occurrence, exactly as plain emplace does.
      log.emplace_hint(log.end(), *op, std::move(entry));
    }
    a.var_logs[*vid] = std::move(log);
  }
  auto n_txls = in->ReadVarint();
  if (!n_txls) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_txls; ++i) {
    auto rid = in->ReadVarint();
    auto tid = in->ReadFixed64();
    auto n = in->ReadVarint();
    // An op is at least type, hid and opnum: 1 + 8 + 1 bytes.
    if (!rid || !tid || !n || !in->CanHold(*n, 10)) {
      return std::nullopt;
    }
    TransactionLog log;
    log.reserve(*n);
    for (uint64_t j = 0; j < *n; ++j) {
      TxOperation op;
      auto type = in->ReadByte();
      auto hid = in->ReadFixed64();
      auto opnum = in->ReadVarint();
      if (!type || *type > static_cast<uint8_t>(TxOpType::kGet) || !hid || !opnum) {
        return std::nullopt;
      }
      op.type = static_cast<TxOpType>(*type);
      op.hid = *hid;
      op.opnum = static_cast<OpNum>(*opnum);
      if (op.type == TxOpType::kPut) {
        auto key = in->ReadString();
        auto value = in->ReadValue();
        if (!key || !value) {
          return std::nullopt;
        }
        op.key = std::move(*key);
        op.put_value = std::move(*value);
      } else if (op.type == TxOpType::kGet) {
        auto key = in->ReadString();
        auto found = in->ReadBool();
        if (!key || !found) {
          return std::nullopt;
        }
        op.key = std::move(*key);
        op.get_found = *found;
        if (op.get_found) {
          auto from = DeserializeTxOpRef(in);
          if (!from) {
            return std::nullopt;
          }
          op.get_from = *from;
        }
      }
      log.push_back(std::move(op));
    }
    a.tx_logs[TxnKey{*rid, *tid}] = std::move(log);
  }
  auto n_wo = in->ReadVarint();
  // An entry is a TxOpRef: rid, tid and index, 1 + 8 + 1 bytes at least.
  if (!n_wo || !in->CanHold(*n_wo, 10)) {
    return std::nullopt;
  }
  a.write_order.reserve(*n_wo);
  for (uint64_t i = 0; i < *n_wo; ++i) {
    auto w = DeserializeTxOpRef(in);
    if (!w) {
      return std::nullopt;
    }
    a.write_order.push_back(*w);
  }
  auto n_reb = in->ReadVarint();
  if (!n_reb) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_reb; ++i) {
    auto rid = in->ReadVarint();
    auto hid = in->ReadFixed64();
    auto opnum = in->ReadVarint();
    if (!rid || !hid || !opnum) {
      return std::nullopt;
    }
    a.response_emitted_by[*rid] = {*hid, static_cast<OpNum>(*opnum)};
  }
  auto n_oc = in->ReadVarint();
  if (!n_oc) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_oc; ++i) {
    auto rid = in->ReadVarint();
    auto hid = in->ReadFixed64();
    auto count = in->ReadVarint();
    if (!rid || !hid || !count) {
      return std::nullopt;
    }
    a.opcounts[{*rid, *hid}] = static_cast<OpNum>(*count);
  }
  auto n_nd = in->ReadVarint();
  if (!n_nd) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_nd; ++i) {
    auto op = DeserializeOpRef(in);
    auto kind = in->ReadByte();
    if (!op || !kind || *kind > 1) {
      return std::nullopt;
    }
    NondetRecord record;
    record.kind = static_cast<NondetRecord::Kind>(*kind);
    if (record.kind == NondetRecord::Kind::kValue) {
      auto value = in->ReadValue();
      if (!value) {
        return std::nullopt;
      }
      record.value = std::move(*value);
    }
    a.nondet.emplace(*op, std::move(record));
  }
  return a;
}

Advice::SizeBreakdown Advice::MeasureSize() const {
  SizeBreakdown b;
  ByteWriter w;
  SerializeWithBreakdown(*this, &w, &b);
  return b;
}

size_t Advice::var_log_entry_count() const {
  size_t n = 0;
  for (const auto& [vid, log] : var_logs) {
    n += log.size();
  }
  return n;
}

size_t Advice::handler_log_entry_count() const {
  size_t n = 0;
  for (const auto& [rid, log] : handler_logs) {
    n += log.size();
  }
  return n;
}

}  // namespace karousos
