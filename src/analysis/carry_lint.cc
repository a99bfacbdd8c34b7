#include "src/analysis/carry_lint.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "src/server/advice.h"

namespace karousos {

namespace {

std::string VarLogLoc(VarId vid, const OpRef& op) {
  std::ostringstream out;
  out << "var_logs[0x" << std::hex << vid << std::dec << "][" << op.ToString() << "]";
  return out.str();
}

std::string TxImportLoc(const TxOpRef& ref) { return "imports[" + ref.ToString() + "]"; }

std::string VarImportLoc(VarId vid, const OpRef& op) {
  std::ostringstream out;
  out << "imports[var 0x" << std::hex << vid << std::dec << " " << op.ToString() << "]";
  return out.str();
}

}  // namespace

void CarryLint::Begin(uint64_t epoch_requests) {
  *this = CarryLint();
  epoch_requests_ = epoch_requests;
}

void CarryLint::Emit(const char* rule, std::string location, std::string message,
                     std::vector<LintDiagnostic>* out) const {
  out->push_back(
      LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)});
}

void CarryLint::RegisterImports(const EpochSegment& segment) {
  // Every allegation is recorded (first one wins on a duplicate coordinate),
  // direction checked later in CheckImports so the per-epoch diagnostics keep
  // catalogue order.
  for (const auto& imp : segment.imports.tx_ops) {
    pending_tx_imports_.emplace(imp.ref, PendingTxImport{imp, epochs_});
  }
  for (const auto& imp : segment.imports.var_entries) {
    pending_var_imports_.emplace(std::make_pair(imp.vid, imp.op),
                                 PendingVarImport{imp, epochs_});
  }
}

void CarryLint::CheckEpoch(const EpochSegment& segment, const std::set<RequestId>& trace_rids,
                           std::vector<LintDiagnostic>* out) {
  CheckDuplicateClaims(segment, out);      // 004
  CheckOpcountEpochs(segment, out);        // 005
  CheckWriteOrderRecurrence(segment, out); // 006
  // 007 needs the trace universe: misplacement is only meaningful for real
  // requests, phantom rids are KAR-ADV-001's finding.
  {
    const Advice& advice = segment.advice;
    auto place = [&](RequestId rid, auto&& loc) {
      uint64_t owner = EpochOfRid(rid, epoch_requests_);
      if (owner == epochs_ || trace_rids.count(rid) == 0) {
        return;
      }
      if (owner < epochs_) {
        Emit(kKarSeg007, loc(),
             "advice content for request " + std::to_string(rid) + " (epoch " +
                 std::to_string(owner) + ") appears in epoch " + std::to_string(epochs_) +
                 "'s slice",
             out);
      } else if (owner > epochs_) {
        // Forward content is only legal as the final slice's clamped tail;
        // judged at Finish once the last epoch is known.
        early_content_.push_back(EarlyContent{epochs_, owner, loc()});
      }
    };
    for (const auto& [rid, tag] : advice.tags) {
      place(rid, [rid = rid] { return "tags[r" + std::to_string(rid) + "]"; });
    }
    for (const auto& [rid, log] : advice.handler_logs) {
      place(rid, [rid = rid] { return "handler_logs[r" + std::to_string(rid) + "]"; });
    }
    for (const auto& [vid, log] : advice.var_logs) {
      for (const auto& [op, entry] : log) {
        place(op.rid, [vid = vid, &op] { return VarLogLoc(vid, op); });
      }
    }
    for (const auto& [txn, log] : advice.tx_logs) {
      place(txn.rid, [&txn] { return "tx_logs[r" + std::to_string(txn.rid) + "]"; });
    }
    for (const auto& [rid, by] : advice.response_emitted_by) {
      place(rid, [rid = rid] { return "response_emitted_by[r" + std::to_string(rid) + "]"; });
    }
    for (const auto& [key, count] : advice.opcounts) {
      place(key.first, [rid = key.first, hid = key.second] {
        return "opcounts[(r" + std::to_string(rid) + ",h" + std::to_string(hid) + ")]";
      });
    }
    for (const auto& [op, record] : advice.nondet) {
      place(op.rid, [&op] { return "nondet[" + op.ToString() + "]"; });
    }
  }
  CheckImports(segment, trace_rids, out);  // 008
}

std::optional<uint64_t> CarryLint::FirstClaim(const OpRef& op) {
  std::optional<uint64_t> first;
  auto it = misplaced_claims_.find(op);
  if (it != misplaced_claims_.end()) {
    first = it->second;
  }
  // Its own epoch's claim, if that epoch is over and came first.
  const uint64_t owner = EpochOfRid(op.rid, epoch_requests_);
  auto own = own_claims_.find(owner);
  if (owner < epochs_ && own != own_claims_.end() && (!first || owner < *first)) {
    std::vector<OpRef>& ops = own->second.ops;
    if (!own->second.sorted) {
      std::sort(ops.begin(), ops.end());
      own->second.sorted = true;
    }
    if (std::binary_search(ops.begin(), ops.end(), op)) {
      first = owner;
    }
  }
  return first;
}

std::vector<std::pair<OpRef, uint64_t>> CarryLint::ClaimsByOp() const {
  std::vector<std::pair<OpRef, uint64_t>> claims(misplaced_claims_.begin(),
                                                 misplaced_claims_.end());
  for (const auto& [epoch, own] : own_claims_) {
    for (const OpRef& op : own.ops) {
      claims.emplace_back(op, epoch);
    }
  }
  std::sort(claims.begin(), claims.end());
  claims.erase(std::unique(claims.begin(), claims.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
               claims.end());
  return claims;
}

std::vector<uint32_t> CarryLint::PrecIndex() const {
  const auto key = [this](uint32_t i) -> const auto& { return prec_edges_[i].first; };
  std::vector<uint32_t> index(prec_edges_.size());
  std::iota(index.begin(), index.end(), 0);
  std::stable_sort(index.begin(), index.end(),
                   [&key](uint32_t a, uint32_t b) { return key(a) < key(b); });
  index.erase(std::unique(index.begin(), index.end(),
                          [&key](uint32_t a, uint32_t b) { return key(a) == key(b); }),
              index.end());
  return index;
}

bool CarryLint::ForeignTarget(RequestId rid, const std::set<RequestId>& trace_rids) const {
  // The init pseudo-request is replicated into every shard, and rids outside
  // the trace have no owning shard a local audit could defer to — both stay
  // on the unsharded path. Only real requests owned elsewhere defer to the
  // merge.
  return shard_filter_ != nullptr && rid != 0 && shard_filter_->count(rid) == 0 &&
         trace_rids.count(rid) != 0;
}

// KAR-SEG-004: an operation executes in exactly one epoch, so coordinates
// already claimed by a completed epoch's log entry cannot recur. The slice's
// own duplicates are KAR-ADV-006's finding; only the cross-epoch probe lives
// here (the claim records hold strictly earlier epochs until EndEpoch folds).
void CarryLint::CheckDuplicateClaims(const EpochSegment& segment,
                                     std::vector<LintDiagnostic>* out) {
  auto claim = [&](const OpRef& op, auto&& loc) {
    if (std::optional<uint64_t> first = FirstClaim(op)) {
      Emit(kKarSeg004, loc(),
           "operation " + op.ToString() + " was already claimed by a log entry in epoch " +
               std::to_string(*first),
           out);
    }
  };
  const Advice& advice = segment.advice;
  for (const auto& [rid, log] : advice.handler_logs) {
    for (size_t i = 0; i < log.size(); ++i) {
      claim(OpRef{rid, log[i].hid, log[i].opnum}, [rid = rid, i] {
        return "handler_logs[r" + std::to_string(rid) + "][" + std::to_string(i) + "]";
      });
    }
  }
  for (const auto& [txn, log] : advice.tx_logs) {
    for (size_t i = 0; i < log.size(); ++i) {
      claim(OpRef{txn.rid, log[i].hid, log[i].opnum}, [&txn, i] {
        return "tx_logs[" + TxOpRef{txn.rid, txn.tid, static_cast<uint32_t>(i) + 1}.ToString() +
               "]";
      });
    }
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      claim(op, [vid = vid, &op] { return VarLogLoc(vid, op); });
    }
  }
}

// KAR-SEG-005: a handler's opcount is declared once, in its owning epoch; a
// second declaration could silently widen the operation space re-execution
// trusts.
void CarryLint::CheckOpcountEpochs(const EpochSegment& segment,
                                   std::vector<LintDiagnostic>* out) {
  for (const auto& [key, count] : segment.advice.opcounts) {
    auto it = opcount_epochs_.find(key);
    if (it != opcount_epochs_.end()) {
      Emit(kKarSeg005,
           "opcounts[(r" + std::to_string(key.first) + ",h" + std::to_string(key.second) + ")]",
           "opcount for handler h" + std::to_string(key.second) + " of request " +
               std::to_string(key.first) + " was already declared in epoch " +
               std::to_string(it->second),
           out);
    }
  }
}

// KAR-SEG-006: the chunks concatenate to one alleged total order, so an entry
// recurring in a later chunk is the cross-epoch form of KAR-ADV-010's cycle —
// caught here per epoch instead of at Finish.
void CarryLint::CheckWriteOrderRecurrence(const EpochSegment& segment,
                                          std::vector<LintDiagnostic>* out) {
  const WriteOrder& order = segment.advice.write_order;
  for (size_t i = 0; i < order.size(); ++i) {
    auto it = write_order_epochs_.find(order[i]);
    if (it != write_order_epochs_.end()) {
      Emit(kKarSeg006, "write_order[" + std::to_string(i) + "]",
           "write-order entry " + order[i].ToString() + " already appeared in epoch " +
               std::to_string(it->second) + "'s chunk",
           out);
    }
  }
}

// KAR-SEG-008, per-epoch half: direction of this epoch's allegations, and
// confirmation of earlier allegations whose target epoch just arrived, by the
// one import-confirmation predicate (rollover.h) with the live slice as the
// real content. This is the only confirmer on the epoch axis: it runs before
// the slice is folded, while every value the import may name is in hand.
void CarryLint::CheckImports(const EpochSegment& segment, const std::set<RequestId>& trace_rids,
                             std::vector<LintDiagnostic>* out) {
  for (const auto& imp : segment.imports.tx_ops) {
    uint64_t target = EpochOfRid(imp.ref.rid, epoch_requests_);
    if (target <= epochs_ && !ForeignTarget(imp.ref.rid, trace_rids)) {
      Emit(kKarSeg008, TxImportLoc(imp.ref),
           "continuity import does not point forward (registered in epoch " +
               std::to_string(epochs_) + ", target epoch " + std::to_string(target) + ")",
           out);
    }
  }
  for (const auto& imp : segment.imports.var_entries) {
    uint64_t target = EpochOfRid(imp.op.rid, epoch_requests_);
    if (target <= epochs_ && !ForeignTarget(imp.op.rid, trace_rids)) {
      Emit(kKarSeg008, VarImportLoc(imp.vid, imp.op),
           "continuity import does not point forward (registered in epoch " +
               std::to_string(epochs_) + ", target epoch " + std::to_string(target) + ")",
           out);
    }
  }

  for (auto it = pending_tx_imports_.begin(); it != pending_tx_imports_.end();) {
    const TxOpRef& ref = it->first;
    if (it->second.registered_epoch >= epochs_ ||
        EpochOfRid(ref.rid, epoch_requests_) != epochs_ ||
        ForeignTarget(ref.rid, trace_rids)) {
      ++it;
      continue;
    }
    if (!TxImportMatches(it->second.imp, ResolveInLogs(segment.advice.tx_logs, ref))) {
      Emit(kKarSeg008, TxImportLoc(ref),
           "continuity import does not match the advice it mirrors (epoch " +
               std::to_string(epochs_) + " arrived)",
           out);
    }
    it = pending_tx_imports_.erase(it);
  }
  for (auto it = pending_var_imports_.begin(); it != pending_var_imports_.end();) {
    const auto& [vid, op] = it->first;
    if (it->second.registered_epoch >= epochs_ ||
        EpochOfRid(op.rid, epoch_requests_) != epochs_ ||
        ForeignTarget(op.rid, trace_rids)) {
      ++it;
      continue;
    }
    ResolvedVarEntry real;
    auto log_it = segment.advice.var_logs.find(vid);
    if (log_it != segment.advice.var_logs.end()) {
      auto entry_it = log_it->second.find(op);
      if (entry_it != log_it->second.end()) {
        real = {true, entry_it->second.kind == VarLogEntry::Kind::kWrite, &entry_it->second.value};
      }
    }
    if (!VarImportMatches(it->second.imp, real)) {
      Emit(kKarSeg008, VarImportLoc(vid, op),
           "continuity import does not match the advice it mirrors (epoch " +
               std::to_string(epochs_) + " arrived)",
           out);
    }
    it = pending_var_imports_.erase(it);
  }
}

void CarryLint::EndEpoch(const EpochSegment& segment) {
  const Advice& advice = segment.advice;
  std::vector<OpRef>& own = own_claims_[epochs_].ops;
  own.reserve(own.size() + advice.handler_log_entry_count() + advice.var_log_entry_count());
  auto claim = [&](const OpRef& op) {
    if (EpochOfRid(op.rid, epoch_requests_) == epochs_) {
      own.push_back(op);
    } else {
      misplaced_claims_.emplace(op, epochs_);
    }
  };
  opcount_epochs_.reserve(opcount_epochs_.size() + advice.opcounts.size());
  write_order_epochs_.reserve(write_order_epochs_.size() + advice.write_order.size());
  txn_sizes_.reserve(txn_sizes_.size() + advice.tx_logs.size());
  for (const auto& [rid, log] : advice.handler_logs) {
    for (const HandlerLogEntry& e : log) {
      claim(OpRef{rid, e.hid, e.opnum});
    }
  }
  for (const auto& [txn, log] : advice.tx_logs) {
    txn_sizes_[txn] = static_cast<uint32_t>(log.size());
    for (uint32_t i = 1; i <= log.size(); ++i) {
      const TxOperation& op = log[i - 1];
      claim(OpRef{txn.rid, op.hid, op.opnum});
      if (op.type == TxOpType::kPut) {
        put_shapes_[TxOpRef{txn.rid, txn.tid, i}] = PutShape{op.key, op.hid, op.opnum};
      }
    }
  }
  for (const auto& [vid, log] : advice.var_logs) {
    for (const auto& [op, entry] : log) {
      claim(op);
      if (!entry.prec.IsNil() && entry.prec != op) {
        prec_edges_.emplace_back(std::make_pair(vid, op), PrecEdge{entry.prec, epochs_});
      }
      var_kinds_.insert_or_assign(var_kinds_.end(), std::make_pair(vid, op),
                                  entry.kind == VarLogEntry::Kind::kWrite);
    }
  }
  for (const auto& [key, count] : advice.opcounts) {
    opcount_epochs_.emplace(key, epochs_);
  }
  for (const TxOpRef& w : advice.write_order) {
    write_order_epochs_.emplace(w, epochs_);
  }
  order_.insert(order_.end(), advice.write_order.begin(), advice.write_order.end());
  ++epochs_;
}

void CarryLint::Finish(std::vector<LintDiagnostic>* out) {
  // The accumulated write-order lint comes before any KAR-SEG finish rule,
  // whose pass is skipped if the order lint errors.
  size_t first_new = out->size();
  LintWriteOrder(order_, [this](const TxOpRef& ref) { return ResolveTxOp(ref); }, out);
  for (size_t i = first_new; i < out->size(); ++i) {
    if ((*out)[i].severity == LintSeverity::kError) {
      return;
    }
  }
  FinishEarlyContent(out);  // 007, forward half
  FinishImports(out);       // 008, residual closure
  FinishPrecChains(out);    // 009
}

// KAR-SEG-007, forward half: content ahead of its epoch is legal only as the
// final slice's clamped tail (rids beyond the last trace epoch land there, so
// the not-in-trace rule reports them as a one-epoch audit would).
void CarryLint::FinishEarlyContent(std::vector<LintDiagnostic>* out) {
  uint64_t last = epochs_ == 0 ? 0 : epochs_ - 1;
  for (const EarlyContent& e : early_content_) {
    if (e.owner_epoch <= last || e.seen_epoch != last) {
      Emit(kKarSeg007, e.location,
           "advice content for epoch " + std::to_string(e.owner_epoch) +
               " appeared early in epoch " + std::to_string(e.seen_epoch) + "'s slice",
           out);
    }
  }
}

// KAR-SEG-008, residual half: allegations whose target epoch never arrived
// mirror nothing, so they may only claim absence.
void CarryLint::FinishImports(std::vector<LintDiagnostic>* out) {
  for (const auto& [ref, pending] : pending_tx_imports_) {
    if (EpochOfRid(ref.rid, epoch_requests_) < epochs_) {
      continue;  // Non-forward; already reported at registration.
    }
    if (pending.imp.txn_present || pending.imp.op_present) {
      Emit(kKarSeg008, TxImportLoc(ref), "continuity import claims content beyond the final epoch",
           out);
    }
  }
  for (const auto& [key, pending] : pending_var_imports_) {
    if (EpochOfRid(key.second.rid, epoch_requests_) < epochs_) {
      continue;
    }
    if (pending.imp.present) {
      Emit(kKarSeg008, VarImportLoc(key.first, key.second),
           "continuity import claims content beyond the final epoch", out);
    }
  }
}

// KAR-SEG-009: each var-log entry names at most one predecessor, so the prec
// relation is a functional graph per variable — one forward walk with path
// marking finds every cycle in linear time. The walk runs over the key-sorted
// first-edge index the checkpoint writes, so it starts at keys in ascending
// (vid, op) order and a restored session reports what an uninterrupted one
// does. Cycles confined to a single epoch are left to the dynamic chain
// checks (a one-epoch audit could never fire a KAR-SEG rule); only cycles
// spanning epochs report here.
void CarryLint::FinishPrecChains(std::vector<LintDiagnostic>* out) {
  if (epochs_ < 2) {
    return;  // Every edge comes from one epoch, so no cycle spans two.
  }
  const std::vector<uint32_t> index = PrecIndex();
  const auto edge = [&](size_t pos) -> const auto& { return prec_edges_[index[pos]]; };
  const auto by_key = [this](uint32_t i, const std::pair<VarId, OpRef>& k) {
    return prec_edges_[i].first < k;
  };
  // The index position of the edge keyed by pos's prec, or index.size().
  const auto successor = [&](size_t pos) {
    const auto next = std::make_pair(edge(pos).first.first, edge(pos).second.prec);
    auto it = std::lower_bound(index.begin(), index.end(), next, by_key);
    return it != index.end() && prec_edges_[*it].first == next ? size_t(it - index.begin())
                                                               : index.size();
  };
  std::vector<uint8_t> color(index.size(), 0);  // 0 new, 1 on path, 2 done.
  std::vector<uint32_t> path;
  for (size_t start = 0; start < index.size(); ++start) {
    path.clear();
    size_t cur = start;
    for (; cur < index.size() && color[cur] == 0; cur = successor(cur)) {
      color[cur] = 1;
      path.push_back(cur);
    }
    if (cur < index.size() && color[cur] == 1) {
      // Found a cycle: the tail of `path` from cur's occurrence.
      bool spans_epochs = false;
      std::ostringstream cycle;
      for (auto it = std::find(path.begin(), path.end(), cur); it != path.end(); ++it) {
        const auto& [key, prec] = edge(*it);
        spans_epochs |= prec.epoch != edge(cur).second.epoch;
        cycle << " " << key.second.ToString() << "@e" << prec.epoch;
      }
      if (spans_epochs) {
        std::ostringstream loc;
        loc << "var_logs[0x" << std::hex << edge(cur).first.first << std::dec << "]";
        Emit(kKarSeg009, loc.str(), "variable prec chain is cyclic across epochs:" + cycle.str(),
             out);
      }
    }
    for (uint32_t node : path) {
      color[node] = 2;
    }
  }
}

ResolvedTxOp CarryLint::ResolveTxOp(const TxOpRef& ref) const {
  auto size_it = txn_sizes_.find(TxnKey{ref.rid, ref.tid});
  if (size_it != txn_sizes_.end()) {
    ResolvedTxOp out;
    out.txn_present = true;
    if (ref.index >= 1 && ref.index <= size_it->second) {
      out.op_present = true;
      auto put_it = put_shapes_.find(ref);
      if (put_it != put_shapes_.end()) {
        out.is_put = true;
        out.key = put_it->second.key;
        out.hid = put_it->second.hid;
        out.opnum = put_it->second.opnum;
      }
    }
    return out;
  }
  auto imp_it = pending_tx_imports_.find(ref);
  if (imp_it != pending_tx_imports_.end()) {
    return ResolveImport(imp_it->second.imp);
  }
  return ResolvedTxOp{};
}

ResolvedVarEntry CarryLint::ResolveVarEntry(VarId vid, const OpRef& op) const {
  auto kind_it = var_kinds_.find({vid, op});
  if (kind_it != var_kinds_.end()) {
    return {true, kind_it->second, nullptr};
  }
  auto imp_it = pending_var_imports_.find({vid, op});
  if (imp_it != pending_var_imports_.end() && imp_it->second.imp.present) {
    return ResolveImport(imp_it->second.imp);
  }
  return {};
}

// Every map is written in ascending key order, so the encoding is canonical.
void CarryLint::Serialize(ByteWriter* out) const {
  out->WriteVarint(epoch_requests_);
  out->WriteVarint(epochs_);
  const auto claims = ClaimsByOp();
  out->WriteVarint(claims.size());
  for (const auto& [op, epoch] : claims) {
    SerializeOpRef(op, out);
    out->WriteVarint(epoch);
  }
  out->WriteVarint(opcount_epochs_.size());
  for (const auto* e : SortedEntries(opcount_epochs_)) {
    out->WriteVarint(e->first.first);
    out->WriteFixed64(e->first.second);
    out->WriteVarint(e->second);
  }
  out->WriteVarint(write_order_epochs_.size());
  for (const auto* e : SortedEntries(write_order_epochs_)) {
    SerializeTxOpRef(e->first, out);
    out->WriteVarint(e->second);
  }
  const auto prec_index = PrecIndex();
  out->WriteVarint(prec_index.size());
  for (uint32_t i : prec_index) {
    const auto& [key, edge] = prec_edges_[i];
    out->WriteFixed64(key.first);
    SerializeOpRef(key.second, out);
    SerializeOpRef(edge.prec, out);
    out->WriteVarint(edge.epoch);
  }
  out->WriteVarint(early_content_.size());
  for (const EarlyContent& e : early_content_) {
    out->WriteVarint(e.seen_epoch);
    out->WriteVarint(e.owner_epoch);
    out->WriteString(e.location);
  }
  out->WriteVarint(pending_tx_imports_.size());
  for (const auto& [ref, pending] : pending_tx_imports_) {
    pending.imp.Serialize(out);
    out->WriteVarint(pending.registered_epoch);
  }
  out->WriteVarint(pending_var_imports_.size());
  for (const auto& [key, pending] : pending_var_imports_) {
    pending.imp.Serialize(out);
    out->WriteVarint(pending.registered_epoch);
  }
  out->WriteVarint(txn_sizes_.size());
  for (const auto* e : SortedEntries(txn_sizes_)) {
    SerializeTxnKey(e->first, out);
    out->WriteVarint(e->second);
  }
  out->WriteVarint(put_shapes_.size());
  for (const auto* e : SortedEntries(put_shapes_)) {
    SerializeTxOpRef(e->first, out);
    out->WriteString(e->second.key);
    out->WriteFixed64(e->second.hid);
    out->WriteVarint(e->second.opnum);
  }
  out->WriteVarint(var_kinds_.size());
  for (const auto& [key, is_write] : var_kinds_) {
    out->WriteFixed64(key.first);
    SerializeOpRef(key.second, out);
    out->WriteBool(is_write);
  }
  out->WriteVarint(order_.size());
  for (const TxOpRef& ref : order_) {
    SerializeTxOpRef(ref, out);
  }
}

void CarryLint::Deserialize(StateReader* in) {
  *this = CarryLint();
  epoch_requests_ = in->V();
  epochs_ = in->V();
  // Each minimum below is the entry's smallest encoding: its key, then a
  // one-byte epoch, count, bool or empty string.
  in->Each(kMinOpRefBytes + 1, [&] {
    OpRef op = in->Op();
    uint64_t epoch = in->V();
    if (epoch < epochs_ && epoch == EpochOfRid(op.rid, epoch_requests_)) {
      own_claims_[epoch].ops.push_back(op);
    } else {
      misplaced_claims_.emplace(op, epoch);
    }
  });
  in->Each(10, [&] {
    RequestId rid = in->V();
    HandlerId hid = in->F64();
    opcount_epochs_.emplace(std::make_pair(rid, hid), in->V());
  });
  in->Each(kMinTxOpRefBytes + 1, [&] {
    TxOpRef ref = in->Tx();
    write_order_epochs_.emplace(ref, in->V());
  });
  in->Each(8 + 2 * kMinOpRefBytes + 1, [&] {
    VarId vid = in->F64();
    OpRef op = in->Op();
    OpRef prec = in->Op();
    prec_edges_.emplace_back(std::make_pair(vid, op), PrecEdge{prec, in->V()});
  });
  in->Each(3, [&] {
    uint64_t seen = in->V();
    uint64_t owner = in->V();
    early_content_.push_back(EarlyContent{seen, owner, in->S()});
  });
  in->Each(ContinuityImports::TxOpImport::kMinBytes + 1, [&] {
    auto imp = ContinuityImports::TxOpImport::Deserialize(in);
    TxOpRef ref = imp.ref;
    pending_tx_imports_.emplace(ref, PendingTxImport{std::move(imp), in->V()});
  });
  in->Each(ContinuityImports::VarImport::kMinBytes + 1, [&] {
    auto imp = ContinuityImports::VarImport::Deserialize(in);
    auto key = std::make_pair(imp.vid, imp.op);
    pending_var_imports_.emplace(key, PendingVarImport{std::move(imp), in->V()});
  });
  in->Each(kMinTxnKeyBytes + 1, [&] {
    TxnKey txn = in->Txn();
    txn_sizes_.emplace(txn, static_cast<uint32_t>(in->V()));
  });
  // ref, an empty key, hid and opnum.
  in->Each(kMinTxOpRefBytes + 10, [&] {
    TxOpRef ref = in->Tx();
    PutShape& put = put_shapes_[ref];
    put.key = in->S();
    put.hid = in->F64();
    put.opnum = static_cast<OpNum>(in->V());
  });
  in->Each(8 + kMinOpRefBytes + 1, [&] {
    VarId vid = in->F64();
    OpRef op = in->Op();
    var_kinds_.emplace(std::make_pair(vid, op), in->Bool());
  });
  in->List(&order_, kMinTxOpRefBytes, [in] { return in->Tx(); });
}

}  // namespace karousos
