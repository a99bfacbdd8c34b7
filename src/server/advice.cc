#include "src/server/advice.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace karousos {

namespace {

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

// Reads the patch of a write whose kind byte was `form` (kMapPatch or
// kListAppend). Keys must come in strictly increasing order.
bool ReadVarPatch(VarWriteForm form, FieldDecoder* in, VarPatch* patch) {
  patch->form = form;
  auto n = in->Varint();
  // A set is a key and a value; an erase or an appended item, one field.
  if (!n || !in->CanHold(*n, form == VarWriteForm::kMapPatch ? 2 : 1)) {
    return false;
  }
  if (form == VarWriteForm::kListAppend) {
    patch->appended.reserve(static_cast<size_t>(*n));
    for (uint64_t i = 0; i < *n; ++i) {
      auto item = in->Val(1);
      if (!item) {
        return false;
      }
      patch->appended.push_back(std::move(*item));
    }
    return true;
  }
  patch->sets.reserve(static_cast<size_t>(*n));
  for (uint64_t i = 0; i < *n; ++i) {
    auto key = in->Str();
    auto value = key ? in->Val(1) : std::nullopt;
    if (!value || !patch->sets.AppendInOrder(std::move(*key), std::move(*value))) {
      return false;
    }
  }
  auto n_erases = in->Varint();
  if (!n_erases || !in->CanHold(*n_erases, 1)) {
    return false;
  }
  patch->erases.reserve(static_cast<size_t>(*n_erases));
  for (uint64_t i = 0; i < *n_erases; ++i) {
    auto key = in->Str();
    if (!key || (!patch->erases.empty() && !(patch->erases.back() < *key))) {
      return false;
    }
    patch->erases.push_back(std::move(*key));
  }
  return true;
}

// Reads the rest of a var-log entry whose kind byte was `kind`: nothing for
// a read, the value of a full write, or the patch of a patched one (whose
// value stays empty until VarPatchResolver fills it). False when malformed.
bool ReadStoredWrite(uint8_t kind, FieldDecoder* in, VarLogEntry* entry,
                            VarPatch* patch) {
  if (kind > static_cast<uint8_t>(VarWriteForm::kListAppend)) {
    return false;
  }
  entry->kind = kind == 0 ? VarLogEntry::Kind::kRead : VarLogEntry::Kind::kWrite;
  if (kind == 0) {
    return true;
  }
  const auto form = static_cast<VarWriteForm>(kind);
  if (form != VarWriteForm::kFull) {
    return ReadVarPatch(form, in, patch);
  }
  auto value = in->Val(0);
  if (value) {
    entry->value = std::move(*value);
  }
  return value.has_value();
}

}  // namespace

// Writes a logged write's kind byte and stored form: `value` in full, or
// the patch `diff` describes.
void WriteStoredWrite(const VarWriteDiff& diff, const Value& value, FieldEncoder* out) {
  out->Byte(static_cast<uint8_t>(diff.form));
  switch (diff.form) {
    case VarWriteForm::kFull:
      out->Val(value);
      return;
    case VarWriteForm::kMapPatch:
      out->Varint(diff.sets.size());
      for (const ValueMap::value_type* set : diff.sets) {
        out->Str(set->first);
        out->Val(set->second);
      }
      out->Varint(diff.erases.size());
      for (const std::string* key : diff.erases) {
        out->Str(*key);
      }
      return;
    case VarWriteForm::kListAppend: {
      const ValueList& items = value.AsList();
      out->Varint(items.size() - diff.appended_from);
      for (size_t i = diff.appended_from; i < items.size(); ++i) {
        out->Val(items[i]);
      }
      return;
    }
  }
}

// The component order and per-entry field order are the wire format. Rids
// run as lanes per component; opnums as lanes per log.
void Advice::Encode(FieldEncoder* e, SizeBreakdown* breakdown) const {
  const size_t start = e->BodyBytes();
  VarPatchPlanner planner;
  e->Varint(tags.size());
  uint64_t prev_rid = 0;
  for (const auto& [rid, tag] : tags) {
    e->Lane(rid, &prev_rid);
    e->Id(tag);
  }
  const size_t after_tags = e->BodyBytes();

  e->Varint(handler_logs.size());
  prev_rid = 0;
  for (const auto& [rid, log] : handler_logs) {
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
  const size_t after_hls = e->BodyBytes();

  e->Varint(var_logs.size());
  for (const auto& [vid, log] : var_logs) {
    e->Id(vid);
    e->Varint(log.size());
    uint64_t prev_op_rid = 0;
    uint64_t prev_op_opnum = 0;
    const std::vector<const Value*> bases = PatchBases(log);
    size_t i = 0;
    for (const auto& [op, entry] : log) {
      e->Lane(op.rid, &prev_op_rid);
      e->Id(op.hid);
      e->Lane(op.opnum, &prev_op_opnum);
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        WriteStoredWrite(planner.Plan(entry.value, bases[i], e->BodyBytes() - start), entry.value,
                         e);
      } else {
        e->Byte(static_cast<uint8_t>(entry.kind));
      }
      ++i;
      e->RelRid(entry.prec.rid, op.rid);
      e->Id(entry.prec.hid);
      e->Varint(entry.prec.opnum);
    }
  }
  const size_t after_vls = e->BodyBytes();

  e->Varint(tx_logs.size());
  prev_rid = 0;
  for (const auto& [txn, log] : tx_logs) {
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
  const size_t after_txls = e->BodyBytes();

  e->Varint(write_order.size());
  prev_rid = 0;
  for (const TxOpRef& w : write_order) {
    e->Lane(w.rid, &prev_rid);
    e->Id(w.tid);
    e->Varint(w.index);
  }
  const size_t after_wo = e->BodyBytes();

  e->Varint(response_emitted_by.size());
  prev_rid = 0;
  for (const auto& [rid, by] : response_emitted_by) {
    e->Lane(rid, &prev_rid);
    e->Id(by.first);
    e->Varint(by.second);
  }
  e->Varint(opcounts.size());
  prev_rid = 0;
  for (const auto& [key, count] : opcounts) {
    e->Lane(key.first, &prev_rid);
    e->Id(key.second);
    e->Varint(count);
  }
  e->Varint(nondet.size());
  prev_rid = 0;
  for (const auto& [op, record] : nondet) {
    e->Lane(op.rid, &prev_rid);
    e->Id(op.hid);
    e->Varint(op.opnum);
    e->Byte(static_cast<uint8_t>(record.kind));
    if (record.kind == NondetRecord::Kind::kValue) {
      e->Val(record.value);
    }
  }
  if (breakdown != nullptr) {
    breakdown->tags = after_tags - start;
    breakdown->handler_logs = after_hls - after_tags;
    breakdown->var_logs = after_vls - after_hls;
    breakdown->tx_logs = after_txls - after_vls;
    breakdown->write_order = after_wo - after_txls;
    breakdown->other = e->BodyBytes() - after_wo;
    breakdown->total = e->BodyBytes() - start;
  }
}

// Each count that sizes a reservation is bounded by its entry's fewest
// bytes: one per field, eight per Id with the dict stage off.
std::optional<Advice> Advice::Decode(FieldDecoder* d, StoredWrites* stored) {
  Advice a;
  VarPatchResolver resolver(d->unit_bytes());
  StoredWrites counts;
  const size_t id = d->IdBytes();

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
    if (!rid || !n || !d->CanHold(*n, 2 + 2 * id)) {
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
      auto opnum = Narrow32(d->Lane(&prev_opnum));
      auto event = d->Id();
      if (!hid || !opnum || !event) {
        return std::nullopt;
      }
      entry.kind = static_cast<HandlerLogEntry::Kind>(*kind);
      entry.hid = *hid;
      entry.opnum = *opnum;
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
    if (!vid || !n || !d->CanHold(*n, 5 + 2 * id)) {
      return std::nullopt;
    }
    VarLog log;
    uint64_t prev_op_rid = 0;
    uint64_t prev_op_opnum = 0;
    for (uint64_t j = 0; j < *n; ++j) {
      auto op_rid = d->Lane(&prev_op_rid);
      auto op_hid = d->Id();
      auto op_opnum = Narrow32(d->Lane(&prev_op_opnum));
      auto kind = d->Byte();
      const size_t at = d->remaining() + 1;
      VarLogEntry entry;
      VarPatch patch;
      if (!op_rid || !op_hid || !op_opnum || !kind || !ReadStoredWrite(*kind, d, &entry, &patch)) {
        return std::nullopt;
      }
      if (*kind == static_cast<uint8_t>(VarWriteForm::kFull)) {
        ++counts.full;
        counts.full_bytes += at - d->remaining();
      } else if (*kind != 0) {
        ++counts.patches;
        counts.patch_bytes += at - d->remaining();
      }
      const OpRef op{*op_rid, *op_hid, *op_opnum};
      auto prec_rid = d->RelRid(op.rid);
      auto prec_hid = d->Id();
      auto prec_opnum = Narrow32(d->Varint());
      if (!prec_rid || !prec_hid || !prec_opnum) {
        return std::nullopt;
      }
      entry.prec = OpRef{*prec_rid, *prec_hid, *prec_opnum};
      // Honest advice arrives key-sorted (encoded from a std::map), so the
      // end hint makes each insert amortized O(1); a duplicate key keeps the
      // first occurrence, exactly as plain emplace does.
      const size_t had = log.size();
      auto it = log.emplace_hint(log.end(), op, std::move(entry));
      if (*kind > static_cast<uint8_t>(VarWriteForm::kFull) && log.size() != had) {
        resolver.Add(it, std::move(patch));
      }
    }
    if (!resolver.Resolve(&log)) {
      return std::nullopt;
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
    if (!rid || !tid || !n || !d->CanHold(*n, 2 + id)) {
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
      auto opnum = Narrow32(d->Lane(&prev_opnum));
      if (!hid || !opnum) {
        return std::nullopt;
      }
      op.type = static_cast<TxOpType>(*type);
      op.hid = *hid;
      op.opnum = *opnum;
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
          auto from_index = Narrow32(d->Varint());
          if (!from_rid || !from_tid || !from_index) {
            return std::nullopt;
          }
          op.get_from = TxOpRef{*from_rid, *from_tid, *from_index};
        }
      }
      log.push_back(std::move(op));
    }
    a.tx_logs[TxnKey{*rid, *tid}] = std::move(log);
  }

  auto n_wo = d->Varint();
  // Rid, tid, index.
  if (!n_wo || !d->CanHold(*n_wo, 2 + id)) {
    return std::nullopt;
  }
  a.write_order.reserve(static_cast<size_t>(*n_wo));
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_wo; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto tid = d->Id();
    auto index = Narrow32(d->Varint());
    if (!rid || !tid || !index) {
      return std::nullopt;
    }
    a.write_order.push_back(TxOpRef{*rid, *tid, *index});
  }

  auto n_reb = d->Varint();
  if (!n_reb) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_reb; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = Narrow32(d->Varint());
    if (!rid || !hid || !opnum) {
      return std::nullopt;
    }
    a.response_emitted_by[*rid] = {*hid, *opnum};
  }

  auto n_oc = d->Varint();
  if (!n_oc) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_oc; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto count = Narrow32(d->Varint());
    if (!rid || !hid || !count) {
      return std::nullopt;
    }
    a.opcounts[{*rid, *hid}] = *count;
  }

  auto n_nd = d->Varint();
  if (!n_nd) {
    return std::nullopt;
  }
  prev_rid = 0;
  for (uint64_t i = 0; i < *n_nd; ++i) {
    auto rid = d->Lane(&prev_rid);
    auto hid = d->Id();
    auto opnum = Narrow32(d->Varint());
    auto kind = d->Byte();
    if (!rid || !hid || !opnum || !kind || *kind > 1) {
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
    a.nondet.emplace(OpRef{*rid, *hid, *opnum}, std::move(record));
  }
  if (stored != nullptr) {
    *stored = counts;
  }
  return a;
}

void Advice::Serialize(ByteWriter* out) const {
  FieldEncoder e(KsegCompression{}, out);
  Encode(&e);
  e.Finish();
}

std::optional<Advice> Advice::Deserialize(ByteReader* in, StoredWrites* stored) {
  FieldDecoder d(in, KsegCompression{});
  return Decode(&d, stored);
}

Advice::SizeBreakdown Advice::MeasureSize() const {
  SizeBreakdown b;
  ByteWriter w;
  FieldEncoder e(KsegCompression{}, &w);
  Encode(&e, &b);
  return b;
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
