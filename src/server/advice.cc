#include "src/server/advice.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace karousos {

namespace {

// The raw grammar's field coders, in the shape WriteStoredWrite and
// ReadVarPatch take.
struct RawSink {
  ByteWriter* out;
  void Byte(uint8_t b) { out->WriteByte(b); }
  void Varint(uint64_t v) { out->WriteVarint(v); }
  void Str(std::string_view s) { out->WriteString(s); }
  void Val(const Value& v) { out->WriteValue(v); }
};

// The bytes a resolver copies to materialize `value` from a patch: its entry
// array, with a map's key bytes. The planner charges the same amount.
size_t MaterializedBytes(const Value& value) {
  if (value.is_list()) {
    return value.AsList().size() * sizeof(Value);
  }
  size_t bytes = 0;
  for (const auto& [key, item] : value.AsMap()) {
    bytes += sizeof(ValueMap::value_type) + key.size();
  }
  return bytes;
}

struct RawSource {
  ByteReader* in;
  std::optional<uint64_t> Varint() { return in->ReadVarint(); }
  std::optional<std::string> Str() { return in->ReadString(); }
  std::optional<Value> Val(size_t depth) { return in->ReadValueAt(depth); }
  bool CanHold(uint64_t count, size_t min_bytes) const { return in->CanHold(count, min_bytes); }
};

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

// `unit_start`: where the unit that holds the advice starts in `out`.
void SerializeVarLogs(const std::map<VarId, VarLog>& logs, size_t unit_start, ByteWriter* out) {
  VarPatchPlanner planner;
  out->WriteVarint(logs.size());
  for (const auto& [vid, log] : logs) {
    out->WriteFixed64(vid);
    out->WriteVarint(log.size());
    const std::vector<const Value*> bases = PatchBases(log);
    size_t i = 0;
    for (const auto& [op, entry] : log) {
      SerializeOpRef(op, out);
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        WriteStoredWrite(planner.Plan(entry.value, bases[i], out->size() - unit_start),
                         entry.value, out);
      } else {
        out->WriteByte(static_cast<uint8_t>(entry.kind));
      }
      ++i;
      SerializeOpRef(entry.prec, out);
    }
  }
}

void SerializeTxLogs(const TransactionLogs& logs, ByteWriter* out) {
  out->WriteVarint(logs.size());
  for (const auto& [txn, log] : logs) {
    SerializeTxnKey(txn, out);
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
  SerializeVarLogs(a.var_logs, start, out);
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

std::optional<Advice> Advice::Deserialize(ByteReader* in, StoredWrites* stored) {
  Advice a;
  VarPatchResolver resolver(in->remaining());
  RawSource source{in};
  StoredWrites counts;
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
      const size_t at = in->remaining() + 1;
      VarLogEntry entry;
      VarPatch patch;
      if (!op || !kind || !ReadStoredWrite(*kind, &source, &entry, &patch)) {
        return std::nullopt;
      }
      if (*kind == static_cast<uint8_t>(VarWriteForm::kFull)) {
        ++counts.full;
        counts.full_bytes += at - in->remaining();
      } else if (*kind != 0) {
        ++counts.patches;
        counts.patch_bytes += at - in->remaining();
      }
      auto prec = DeserializeOpRef(in);
      if (!prec) {
        return std::nullopt;
      }
      entry.prec = *prec;
      // Honest advice arrives key-sorted (serialized from a std::map), so the
      // end hint makes each insert amortized O(1); duplicate keys still keep
      // the first occurrence, exactly as plain emplace does.
      const size_t had = log.size();
      auto it = log.emplace_hint(log.end(), *op, std::move(entry));
      if (*kind > static_cast<uint8_t>(VarWriteForm::kFull) && log.size() != had) {
        resolver.Add(it, std::move(patch));
      }
    }
    if (!resolver.Resolve(&log)) {
      return std::nullopt;
    }
    a.var_logs[*vid] = std::move(log);
  }
  auto n_txls = in->ReadVarint();
  if (!n_txls) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < *n_txls; ++i) {
    auto txn = DeserializeTxnKey(in);
    auto n = in->ReadVarint();
    // An op is at least type, hid and opnum: 1 + 8 + 1 bytes.
    if (!txn || !n || !in->CanHold(*n, 10)) {
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
    a.tx_logs[*txn] = std::move(log);
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
  if (stored != nullptr) {
    *stored = counts;
  }
  return a;
}

Advice::SizeBreakdown Advice::MeasureSize() const {
  SizeBreakdown b;
  ByteWriter w;
  SerializeWithBreakdown(*this, &w, &b);
  return b;
}

void WriteStoredWrite(const VarWriteDiff& diff, const Value& value, ByteWriter* out) {
  RawSink sink{out};
  WriteStoredWrite(diff, value, &sink);
}

VarWriteDiff VarPatchPlanner::Plan(const Value& value, const Value* base, size_t unit_bytes) {
  if (base == nullptr) {
    return VarWriteDiff{};
  }
  VarWriteDiff diff = DiffVarWrite(value, *base);
  if (diff.form == VarWriteForm::kFull) {
    return diff;
  }
  // An empty patch shares its base; any other builds `value` anew.
  const bool empty = diff.form == VarWriteForm::kMapPatch
                         ? diff.sets.empty() && diff.erases.empty()
                         : diff.appended_from == value.AsList().size();
  const size_t copies = empty ? 0 : MaterializedBytes(value);
  if (copied_ + copies > unit_bytes * kPatchCopyBytesPerInputByte) {
    return VarWriteDiff{};
  }
  copied_ += copies;
  return diff;
}

VarWriteDiff DiffVarWrite(const Value& value, const Value& base) {
  VarWriteDiff diff;
  if (value.is_map() && base.is_map()) {
    const ValueMap& now = value.AsMap();
    const ValueMap& was = base.AsMap();
    // The patch must have fewer entries than the value it stands for.
    const size_t limit = now.size();
    auto n = now.begin();
    auto w = was.begin();
    const bool same = Value::Identical(value, base);
    while (!same && (n != now.end() || w != was.end())) {
      if (diff.sets.size() + diff.erases.size() >= limit) {
        return VarWriteDiff{};
      }
      const int order = n == now.end() ? 1 : w == was.end() ? -1 : n->first.compare(w->first);
      if (order < 0) {
        diff.sets.push_back(&*n++);
      } else if (order > 0) {
        diff.erases.push_back(&w++->first);
      } else {
        if (!Value::Identical(n->second, w->second)) {
          diff.sets.push_back(&*n);
        }
        ++n;
        ++w;
      }
    }
    if (diff.sets.size() + diff.erases.size() >= limit) {
      return VarWriteDiff{};
    }
    diff.form = VarWriteForm::kMapPatch;
    return diff;
  }
  if (value.is_list() && base.is_list()) {
    const ValueList& now = value.AsList();
    const ValueList& was = base.AsList();
    // An append over an empty base would carry every item.
    if (was.empty() || was.size() > now.size()) {
      return diff;
    }
    if (!Value::Identical(value, base)) {
      for (size_t i = 0; i < was.size(); ++i) {
        if (!Value::Identical(now[i], was[i])) {
          return diff;
        }
      }
    }
    diff.form = VarWriteForm::kListAppend;
    diff.appended_from = was.size();
  }
  return diff;
}

std::vector<const Value*> PatchBases(const VarLog& log) {
  constexpr size_t kNone = SIZE_MAX;
  std::vector<VarLog::const_iterator> entries;
  entries.reserve(log.size());
  for (auto it = log.begin(); it != log.end(); ++it) {
    entries.push_back(it);
  }
  // next[i]: the index of write i's prec, when that is a write of this log.
  std::vector<size_t> next(entries.size(), kNone);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i]->second.kind != VarLogEntry::Kind::kWrite) {
      continue;
    }
    const OpRef& prec = entries[i]->second.prec;
    auto at = std::lower_bound(entries.begin(), entries.end(), prec,
                               [](VarLog::const_iterator e, const OpRef& op) { return e->first < op; });
    if (at != entries.end() && (*at)->first == prec &&
        (*at)->second.kind == VarLogEntry::Kind::kWrite) {
      next[i] = static_cast<size_t>(at - entries.begin());
    }
  }
  // Each entry has at most one prec link, so walking the links from every
  // unseen entry finds each cycle once: the walk meets an entry it is still
  // on.
  enum : uint8_t { kUnseen, kOnWalk, kDone };
  std::vector<uint8_t> state(entries.size(), kUnseen);
  std::vector<bool> on_cycle(entries.size(), false);
  std::vector<size_t> walk;
  for (size_t i = 0; i < entries.size(); ++i) {
    walk.clear();
    size_t j = i;
    for (; j != kNone && state[j] == kUnseen; j = next[j]) {
      state[j] = kOnWalk;
      walk.push_back(j);
    }
    if (j != kNone && state[j] == kOnWalk) {
      for (auto k = walk.rbegin(); k != walk.rend(); ++k) {
        on_cycle[*k] = true;
        if (*k == j) {
          break;
        }
      }
    }
    for (size_t k : walk) {
      state[k] = kDone;
    }
  }
  std::vector<const Value*> bases(entries.size(), nullptr);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (next[i] != kNone && !on_cycle[i]) {
      bases[i] = &entries[next[i]]->second.value;
    }
  }
  return bases;
}

VarPatchResolver::VarPatchResolver(size_t input_bytes)
    : budget_(input_bytes * kPatchCopyBytesPerInputByte) {}

void VarPatchResolver::Add(VarLog::iterator entry, VarPatch patch) {
  pending_.emplace_back(entry, std::move(patch));
}

bool VarPatchResolver::Resolve(VarLog* log) {
  constexpr size_t kNone = SIZE_MAX;
  // Sorted by op, so a prec finds its pending entry by binary search.
  std::sort(pending_.begin(), pending_.end(),
            [](const auto& a, const auto& b) { return a.first->first < b.first->first; });
  const auto find_pending = [this](const OpRef& op) {
    auto at = std::lower_bound(pending_.begin(), pending_.end(), op,
                               [](const auto& p, const OpRef& key) { return p.first->first < key; });
    return at != pending_.end() && at->first->first == op ? static_cast<size_t>(at - pending_.begin())
                                                          : kNone;
  };
  enum : uint8_t { kUnseen, kOpen, kDone };
  std::vector<uint8_t> state(pending_.size(), kUnseen);
  std::vector<size_t> stack;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (state[i] != kUnseen) {
      continue;
    }
    state[i] = kOpen;
    stack.push_back(i);
    while (!stack.empty()) {
      const size_t j = stack.back();
      VarLogEntry& entry = pending_[j].first->second;
      const Value* base = nullptr;
      const size_t k = find_pending(entry.prec);
      if (k == kNone) {
        auto at = log->find(entry.prec);
        if (at == log->end() || at->second.kind != VarLogEntry::Kind::kWrite) {
          return false;
        }
        base = &at->second.value;
      } else if (state[k] == kUnseen) {
        state[k] = kOpen;
        stack.push_back(k);
        continue;
      } else if (state[k] == kOpen) {
        return false;  // The chain closes a cycle.
      } else {
        base = &pending_[k].first->second.value;
      }
      if (!Apply(&pending_[j].second, *base, &entry.value)) {
        return false;
      }
      state[j] = kDone;
      stack.pop_back();
    }
  }
  pending_.clear();
  return true;
}

bool VarPatchResolver::Apply(VarPatch* patch, const Value& base, Value* out) {
  if (patch->form == VarWriteForm::kListAppend) {
    if (!base.is_list()) {
      return false;
    }
    if (patch->appended.empty()) {
      *out = base;
      return true;
    }
    const ValueList& was = base.AsList();
    ValueList now;
    now.reserve(was.size() + patch->appended.size());
    now.insert(now.end(), was.begin(), was.end());
    std::move(patch->appended.begin(), patch->appended.end(), std::back_inserter(now));
    *out = Value(std::move(now));
    copied_ += MaterializedBytes(*out);
    return copied_ <= budget_;
  }
  if (!base.is_map()) {
    return false;
  }
  if (patch->sets.empty() && patch->erases.empty()) {
    *out = base;
    return true;
  }
  const ValueMap& was = base.AsMap();
  ValueMap now;
  now.reserve(was.size() + patch->sets.size());
  auto set = patch->sets.begin();
  auto erase = patch->erases.begin();
  const auto take_set = [&] {
    now.AppendInOrder(std::move(set->first), std::move(set->second));
    ++set;
  };
  for (const auto& [key, value] : was) {
    while (set != patch->sets.end() && set->first < key) {
      take_set();
    }
    if (erase != patch->erases.end() && *erase < key) {
      return false;  // Erases a key the base lacks.
    }
    const bool replaced = set != patch->sets.end() && set->first == key;
    if (erase != patch->erases.end() && *erase == key) {
      if (replaced) {
        return false;  // Sets and erases one key.
      }
      ++erase;
      continue;
    }
    if (replaced) {
      if (Value::Identical(set->second, value)) {
        return false;  // A set the diff would never write.
      }
      take_set();
      continue;
    }
    now.AppendInOrder(key, value);
  }
  while (set != patch->sets.end()) {
    take_set();
  }
  if (erase != patch->erases.end()) {
    return false;
  }
  *out = Value(std::move(now));
  copied_ += MaterializedBytes(*out);
  return copied_ <= budget_;
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
