// Grouped re-execution (Figures 18-21): the verifier runs each re-execution
// group's handler tree once, SIMD-on-demand over the group's requests,
// checking every operation against the untrusted advice.
//
// Parallel audit engine: groups are independent (their rids partition the
// trace, reads feed from the advice logs or from same-request/init history,
// never from another group), so ReExec executes them concurrently on a
// work-stealing pool. Every group runs against the post-initialization base
// state only and captures its mutations in a GroupState delta; the deltas
// are merged on the calling thread in group-index order, with cross-group
// shared-variable claims (write-chain links, initializing writes, declares)
// replayed against the merged state in their recorded order. The merged
// outcome — including which rejection fires first and the exact diagnostics
// and stats — is therefore a pure function of (trace, advice), bit-identical
// from threads=1 (the serial oracle, same code minus the pool) to any N.
#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "src/apps/app_util.h"
#include "src/common/arena.h"
#include "src/common/pool.h"
#include "src/kem/varid.h"
#include "src/verifier/verifier.h"

namespace karousos {

namespace {

struct PendingActivation {
  HandlerId hid = 0;
  FunctionId function = 0;
  MultiValue input;
};

// The value points into the owning var_dict (group-local or base); callers
// copy it out before mutating that dictionary's entry for the same handler.
struct FoundWrite {
  OpRef op;
  const Value* value = nullptr;
};

}  // namespace

// The Ctx implementation for re-execution. One instance per handler-body
// execution; `rids` are the group lanes. With is_init set it executes the
// initialization pseudo-handler: no advice consultation at all (the verifier
// trusts its own init run, Figure 14 line 20).
//
// All mutable state goes through the group's GroupState delta; the verifier
// itself is only read (base variable state from the init run, the advice,
// the op map). That asymmetry is what makes a ReplayCtx safe to run on any
// pool thread.
class ReplayCtx : public Ctx {
 public:
  ReplayCtx(Verifier* verifier, Verifier::GroupState* gs, std::vector<RequestId> rids,
            HandlerId hid, MultiValue input, bool is_init, Arena* arena)
      : v_(*verifier), gs_(*gs), rids_(std::move(rids)), hid_(hid), input_(std::move(input)),
        is_init_(is_init), arena_(arena) {
    if (!is_init_) {
      // Every enqueued handler was checked against opcounts before enqueue;
      // cache the per-lane bounds so NextOp avoids a map lookup per lane.
      lane_opcounts_ = arena_->AllocateArray<OpNum>(rids_.size());
      for (size_t i = 0; i < rids_.size(); ++i) {
        auto it = v_.opcount_idx_.find({rids_[i], hid_});
        lane_opcounts_[i] = it == v_.opcount_idx_.end() ? 0 : it->second;
      }
    }
  }

  // Wired by ReExecGroup so emits can enqueue activations.
  std::deque<PendingActivation>* active = nullptr;
  FlatSet<HandlerId>* enqueued_hids = nullptr;

  const MultiValue& Input() const override { return input_; }

  // ---- Tracked variables (Figures 20-21) --------------------------------

  void DeclareVar(std::string_view name, VarScope scope) override {
    if (scope == VarScope::kUntracked) {
      gs_.untracked[ResolveVarId(name, scope, 0)] = Value();
      return;
    }
    OpNum opnum = NextOp();
    RequireUnlogged(opnum);
    const bool request_scoped = scope == VarScope::kRequest && !is_init_;
    for (RequestId rid : rids_) {
      VarId vid = ResolveVarId(name, scope, rid);
      const Verifier::VerifierVar* base = BaseVar(vid);
      Verifier::VerifierVar& local = gs_.vars[vid];
      if (local.declared || (base != nullptr && base->declared)) {
        Verifier::Reject("variable declared twice during re-execution");
      }
      local.declared = true;
      gs_.claims.push_back({Verifier::GroupState::Claim::Kind::kDeclare, vid, OpRef{}, OpRef{},
                            request_scoped});
    }
  }

  MultiValue ReadVar(std::string_view name, VarScope scope) override {
    if (scope == VarScope::kUntracked) {
      VarId vid = ResolveVarId(name, scope, 0);
      auto local_it = gs_.untracked.find(vid);
      if (local_it != gs_.untracked.end()) {
        return MultiValue(local_it->second);
      }
      auto base_it = v_.untracked_vars_.find(vid);
      return MultiValue(base_it == v_.untracked_vars_.end() ? Value() : base_it->second);
    }
    OpNum opnum = NextOp();
    RequireUnlogged(opnum);
    std::vector<Value> lanes;
    lanes.reserve(rids_.size());
    for (RequestId rid : rids_) {
      lanes.push_back(ReadLane(ResolveVarId(name, scope, rid), OpRef{rid, hid_, opnum}));
    }
    return MultiValue::Expanded(std::move(lanes));
  }

  void WriteVar(std::string_view name, VarScope scope, const MultiValue& value) override {
    if (scope == VarScope::kUntracked) {
      if (!value.collapsed()) {
        Verifier::Reject("diverging write to an unannotated variable");
      }
      gs_.untracked[ResolveVarId(name, scope, 0)] = value.CollapsedValue();
      return;
    }
    OpNum opnum = NextOp();
    RequireUnlogged(opnum);
    for (size_t i = 0; i < rids_.size(); ++i) {
      WriteLane(ResolveVarId(name, scope, rids_[i]), OpRef{rids_[i], hid_, opnum}, value.Lane(i));
    }
  }

  // ---- Control flow -------------------------------------------------------

  bool Branch(const MultiValue& condition) override {
    bool truth = condition.Lane(0).Truthy();
    for (size_t i = 1; i < rids_.size(); ++i) {
      if (condition.Lane(i).Truthy() != truth) {
        Verifier::Reject("control flow diverged within a re-execution group");
      }
    }
    return truth;
  }

  // ---- Handler operations (Figure 19) -------------------------------------

  void Emit(std::string_view event, const MultiValue& payload) override {
    if (is_init_) {
      Verifier::Reject("initialization emitted an event");
    }
    OpNum opnum = NextOp();
    uint64_t event_id = EventId(event);
    for (RequestId rid : rids_) {
      CheckHandlerOp(rid, opnum, HandlerLogEntry::Kind::kEmit, event_id, 0);
    }
    ActivateHandlers(opnum, payload);
  }

  void RegisterHandler(std::string_view event, std::string_view function) override {
    uint64_t event_id = EventId(event);
    FunctionId function_id = DigestOf(function);
    if (is_init_) {
      if (v_.program_.FindFunction(function_id) == nullptr) {
        Verifier::Reject("initialization registered an unknown function");
      }
      v_.global_handlers_.emplace_back(event_id, function_id);
      return;
    }
    OpNum opnum = NextOp();
    for (RequestId rid : rids_) {
      CheckHandlerOp(rid, opnum, HandlerLogEntry::Kind::kRegister, event_id, function_id);
    }
  }

  void UnregisterHandler(std::string_view event, std::string_view function) override {
    if (is_init_) {
      Verifier::Reject("initialization unregistered a handler");
    }
    OpNum opnum = NextOp();
    for (RequestId rid : rids_) {
      CheckHandlerOp(rid, opnum, HandlerLogEntry::Kind::kUnregister, EventId(event),
                     DigestOf(function));
    }
  }

  // ---- External state (Figure 19, CheckStateOp) ---------------------------

  TxHandle TxStart() override {
    if (is_init_) {
      Verifier::Reject("initialization used external state");
    }
    OpNum opnum = NextOp();
    TxId* tids = arena_->AllocateArray<TxId>(rids_.size());
    for (size_t i = 0; i < rids_.size(); ++i) {
      TxId tid = DigestOfInts(rids_[i], hid_, opnum);
      CheckStateOp(rids_[i], opnum, TxOpType::kTxStart, tid, nullptr, nullptr);
      tids[i] = tid;
    }
    TxHandle handle;
    handle.slot = static_cast<uint32_t>(open_txns_.size());
    handle.valid = true;
    open_txns_.push_back(tids);
    return handle;
  }

  TxGetResult TxGet(TxHandle tx, const MultiValue& key) override {
    TxGetResult out;
    OpNum opnum = NextOp();
    if (CheckConflictMarker(opnum)) {
      out.conflict = true;
      return out;
    }
    const TxId* tids = TidsOf(tx);
    std::vector<Value> values;
    std::vector<Value> found;
    values.reserve(rids_.size());
    found.reserve(rids_.size());
    for (size_t i = 0; i < rids_.size(); ++i) {
      std::string key_str = key.Lane(i).StringOrToString();
      const TxOperation& op =
          CheckStateOpReturning(rids_[i], opnum, TxOpType::kGet, tids[i], &key_str);
      if (op.get_found) {
        // Feed from the dictating PUT (validated by AnalyzeLogs; in the
        // streaming audit the PUT may resolve from a carried epoch or a
        // continuity import rather than the current slice).
        ResolvedTxOp writer = v_.ResolveTxOp(op.get_from);
        values.push_back(*writer.put_value);
        found.push_back(Value(true));
      } else {
        values.push_back(Value());
        found.push_back(Value(false));
      }
    }
    out.value = MultiValue::Expanded(std::move(values));
    out.found = MultiValue::Expanded(std::move(found));
    return out;
  }

  bool TxPut(TxHandle tx, const MultiValue& key, const MultiValue& value) override {
    OpNum opnum = NextOp();
    if (CheckConflictMarker(opnum)) {
      return false;
    }
    const TxId* tids = TidsOf(tx);
    for (size_t i = 0; i < rids_.size(); ++i) {
      std::string key_str = key.Lane(i).StringOrToString();
      Value lane_value = value.Lane(i);
      CheckStateOp(rids_[i], opnum, TxOpType::kPut, tids[i], &key_str, &lane_value);
    }
    return true;
  }

  bool TxCommit(TxHandle tx) override {
    OpNum opnum = NextOp();
    const TxId* tids = TidsOf(tx);
    bool committed = true;
    bool first = true;
    for (size_t i = 0; i < rids_.size(); ++i) {
      const TxOperation& op =
          CheckStateOpReturning(rids_[i], opnum, TxOpType::kTxCommit, tids[i], nullptr);
      bool lane_committed = op.type == TxOpType::kTxCommit;
      if (first) {
        committed = lane_committed;
        first = false;
      } else if (lane_committed != committed) {
        Verifier::Reject("commit outcome diverged within a re-execution group");
      }
    }
    return committed;
  }

  void TxAbort(TxHandle tx) override {
    OpNum opnum = NextOp();
    const TxId* tids = TidsOf(tx);
    for (size_t i = 0; i < rids_.size(); ++i) {
      CheckStateOp(rids_[i], opnum, TxOpType::kTxAbort, tids[i], nullptr, nullptr);
    }
  }

  MultiValue TxIdValue(TxHandle tx) override {
    const TxId* tids = TidsOf(tx);
    std::vector<Value> lanes;
    lanes.reserve(rids_.size());
    for (size_t i = 0; i < rids_.size(); ++i) {
      lanes.push_back(Value(static_cast<int64_t>(tids[i])));
    }
    return MultiValue::Expanded(std::move(lanes));
  }

  TxHandle TxResume(const MultiValue& tid_value) override {
    TxId* tids = arena_->AllocateArray<TxId>(rids_.size());
    for (size_t i = 0; i < rids_.size(); ++i) {
      tids[i] = static_cast<TxId>(tid_value.Lane(i).IntOr(0));
    }
    TxHandle handle;
    handle.slot = static_cast<uint32_t>(open_txns_.size());
    handle.valid = true;
    open_txns_.push_back(tids);
    return handle;
  }

  // ---- Application computation ---------------------------------------------

  MultiValue AppWork(const MultiValue& seed, uint32_t units) override {
    // MultiValue::Map dedups within this call (SIMD-on-demand); the
    // audit-scoped memo additionally dedups across groups and operations.
    return MvExpensiveMemo(seed, units, &v_.work_memo_);
  }

  // ---- Non-determinism -----------------------------------------------------

  MultiValue Random() override {
    OpNum opnum = NextOp();
    RequireUnlogged(opnum);
    std::vector<Value> lanes;
    lanes.reserve(rids_.size());
    for (RequestId rid : rids_) {
      auto it = v_.nondet_idx_.find(OpRef{rid, hid_, opnum});
      if (it == v_.nondet_idx_.end() || it->second->kind != NondetRecord::Kind::kValue) {
        Verifier::Reject("non-deterministic operation has no recorded value");
      }
      lanes.push_back(it->second->value);
    }
    return MultiValue::Expanded(std::move(lanes));
  }

  // ---- Response ------------------------------------------------------------

  void Respond(const MultiValue& body) override {
    if (is_init_) {
      Verifier::Reject("initialization produced a response");
    }
    for (size_t i = 0; i < rids_.size(); ++i) {
      RequestId rid = rids_[i];
      auto it = v_.resp_idx_.find(rid);
      if (it == v_.resp_idx_.end() ||
          it->second != std::make_pair(hid_, ops_issued_)) {
        Verifier::Reject("response delivered at a different operation than advice claims");
      }
      if (!gs_.responded.insert(rid).second) {
        Verifier::Reject("request responded twice during re-execution");
      }
      auto expected = v_.responses_.find(rid);
      if (expected == v_.responses_.end() || !(expected->second == body.Lane(i))) {
        Verifier::Reject("re-executed response does not match the trace");
      }
    }
  }

  OpNum ops_issued() const { return ops_issued_; }

 private:
  OpNum NextOp() {
    ++ops_issued_;
    ++gs_.stats.ops_executed;
    if (!is_init_) {
      for (size_t i = 0; i < rids_.size(); ++i) {
        if (ops_issued_ > lane_opcounts_[i]) {
          Verifier::Reject("handler issued more operations than its opcount");
        }
      }
    }
    return ops_issued_;
  }

  // Annotated-variable and non-deterministic operations must not coincide
  // with any handler-log or transaction-log entry: otherwise a log entry
  // would exist that re-execution never validates.
  void RequireUnlogged(OpNum opnum) {
    if (is_init_) {
      return;
    }
    for (RequestId rid : rids_) {
      if (v_.op_map_.count(OpRef{rid, hid_, opnum}) > 0) {
        Verifier::Reject("advice log entry occupies a non-loggable operation position");
      }
    }
  }

  // One TxId per lane, arena-allocated (lifetime = this handler execution).
  const TxId* TidsOf(TxHandle tx) const {
    if (!tx.valid || tx.slot >= open_txns_.size()) {
      Verifier::Reject("invalid transaction handle during re-execution");
    }
    return open_txns_[tx.slot];
  }

  // True if the server recorded a no-wait conflict for this operation. The
  // marker must be uniform across lanes (divergent outcomes imply divergent
  // control flow, which grouping forbids). Conflicted operations consumed an
  // opnum online but never reached the store, so they must have no log entry.
  bool CheckConflictMarker(OpNum opnum) {
    bool conflict = false;
    bool first = true;
    for (RequestId rid : rids_) {
      auto it = v_.nondet_idx_.find(OpRef{rid, hid_, opnum});
      bool lane_conflict =
          it != v_.nondet_idx_.end() && it->second->kind == NondetRecord::Kind::kConflict;
      if (first) {
        conflict = lane_conflict;
        first = false;
      } else if (lane_conflict != conflict) {
        Verifier::Reject("conflict outcome diverged within a re-execution group");
      }
    }
    if (conflict) {
      RequireUnlogged(opnum);
    }
    return conflict;
  }

  void CheckHandlerOp(RequestId rid, OpNum opnum, HandlerLogEntry::Kind kind, uint64_t event,
                      FunctionId function) {
    OpRef cur{rid, hid_, opnum};
    auto loc = v_.op_map_.find(cur);
    if (loc == v_.op_map_.end() || loc->second.kind != Verifier::OpLocation::Kind::kHandlerLog ||
        loc->second.rid != rid) {
      Verifier::Reject("handler operation missing from the handler log");
    }
    const HandlerLogEntry& entry =
        (*v_.handler_log_idx_.find(rid)->second)[loc->second.index - 1];
    if (entry.kind != kind || entry.event != event ||
        (kind != HandlerLogEntry::Kind::kEmit && entry.function != function)) {
      Verifier::Reject("handler operation does not match the handler log entry");
    }
  }

  const TxOperation& CheckStateOpReturning(RequestId rid, OpNum opnum, TxOpType type, TxId tid,
                                           const std::string* key) {
    OpRef cur{rid, hid_, opnum};
    auto loc = v_.op_map_.find(cur);
    if (loc == v_.op_map_.end() || loc->second.kind != Verifier::OpLocation::Kind::kTxLog) {
      Verifier::Reject("state operation missing from the transaction logs");
    }
    const TxnKey txn = loc->second.txn;
    if (txn.rid != rid || txn.tid != tid) {
      Verifier::Reject("state operation attributed to the wrong transaction");
    }
    uint32_t position = ++gs_.tx_positions[txn];
    if (loc->second.index != position) {
      Verifier::Reject("state operation out of order within its transaction log");
    }
    const TxOperation& op = (*v_.tx_log_idx_.find(txn)->second)[loc->second.index - 1];
    // A re-executed tx_commit may face a logged tx_abort: the online commit
    // failed (Figure 19 line 9). Every other type must match exactly.
    if (op.type != type && !(type == TxOpType::kTxCommit && op.type == TxOpType::kTxAbort)) {
      Verifier::Reject("state operation type does not match the transaction log");
    }
    if (key != nullptr && op.key != *key) {
      Verifier::Reject("state operation key does not match the transaction log");
    }
    return op;
  }

  void CheckStateOp(RequestId rid, OpNum opnum, TxOpType type, TxId tid, const std::string* key,
                    const Value* put_value) {
    const TxOperation& op = CheckStateOpReturning(rid, opnum, type, tid, key);
    if (put_value != nullptr && !(op.put_value == *put_value)) {
      Verifier::Reject("re-executed PUT value does not match the transaction log");
    }
  }

  void ActivateHandlers(OpNum opnum, const MultiValue& payload) {
    // All lanes must activate the same handlers (Figure 19 line 31).
    const std::vector<Verifier::Activation>* expected = nullptr;
    static const std::vector<Verifier::Activation> kEmpty;
    for (RequestId rid : rids_) {
      auto it = v_.activated_handlers_.find(OpRef{rid, hid_, opnum});
      const std::vector<Verifier::Activation>* lane =
          it == v_.activated_handlers_.end() ? &kEmpty : &it->second;
      if (expected == nullptr) {
        expected = lane;
      } else if (lane->size() != expected->size() ||
                 !std::equal(lane->begin(), lane->end(), expected->begin(),
                             [](const Verifier::Activation& a, const Verifier::Activation& b) {
                               return a.hid == b.hid && a.function == b.function;
                             })) {
        Verifier::Reject("emit activates different handlers across the group");
      }
    }
    for (const Verifier::Activation& act : *expected) {
      if (!enqueued_hids->insert(act.hid).second) {
        Verifier::Reject("handler activated twice within a request");
      }
      for (RequestId rid : rids_) {
        gs_.parents[rid][act.hid] = hid_;
      }
      active->push_back(PendingActivation{act.hid, act.function, payload});
    }
  }

  // Base (post-initialization) view of a variable; null if the init run
  // never touched it. Read-only during group execution.
  const Verifier::VerifierVar* BaseVar(VarId vid) const {
    auto it = v_.vars_.find(vid);
    return it == v_.vars_.end() ? nullptr : &it->second;
  }

  // This group's local overlay of a variable; null until the group touches it.
  Verifier::VerifierVar* LocalVar(VarId vid) {
    auto it = gs_.vars.find(vid);
    return it == gs_.vars.end() ? nullptr : &it->second;
  }

  bool IsDeclared(VarId vid) {
    const Verifier::VerifierVar* base = BaseVar(vid);
    if (base != nullptr && base->declared) {
      return true;
    }
    Verifier::VerifierVar* local = LocalVar(vid);
    return local != nullptr && local->declared;
  }

  // Links cur as the overwriter of prec: rejects if the link is already
  // taken locally or in the base state, and records a claim so that a
  // conflict with another group's link is caught at merge time.
  void LinkWrite(VarId vid, const OpRef& prec, const OpRef& cur) {
    const Verifier::VerifierVar* base = BaseVar(vid);
    Verifier::VerifierVar& local = gs_.vars[vid];
    if (local.write_observer.count(prec) > 0 ||
        (base != nullptr && base->write_observer.count(prec) > 0)) {
      Verifier::Reject("two writes overwrite the same value");
    }
    local.write_observer[prec] = cur;
    gs_.claims.push_back({Verifier::GroupState::Claim::Kind::kChainLink, vid, prec, cur});
  }

  Value ReadLane(VarId vid, const OpRef& cur);
  void WriteLane(VarId vid, const OpRef& cur, const Value& value);
  std::optional<FoundWrite> FindNearestRPrecedingWrite(VarId vid, const OpRef& cur);

  Verifier& v_;
  Verifier::GroupState& gs_;
  std::vector<RequestId> rids_;
  HandlerId hid_;
  MultiValue input_;
  bool is_init_;
  Arena* arena_;
  OpNum ops_issued_ = 0;
  OpNum* lane_opcounts_ = nullptr;     // Arena array, one bound per lane.
  std::vector<TxId*> open_txns_;       // Arena arrays, one TxId per lane.
};

// Figure 20, OnRead.
Value ReplayCtx::ReadLane(VarId vid, const OpRef& cur) {
  if (!IsDeclared(vid)) {
    Verifier::Reject("re-executed read of an undeclared variable");
  }
  if (!is_init_) {
    auto log_it = v_.var_log_idx_.find(vid);
    if (log_it != v_.var_log_idx_.end()) {
      auto entry_it = log_it->second.find(cur);
      if (entry_it != log_it->second.end()) {
        const VarLogEntry& entry = *entry_it->second;
        if (entry.kind != VarLogEntry::Kind::kRead || entry.prec.IsNil()) {
          Verifier::Reject("variable log entry for a read is malformed");
        }
        ResolvedVarEntry dictating = v_.ResolveVarEntry(vid, entry.prec);
        if (!dictating.present || !dictating.is_write || dictating.value == nullptr) {
          Verifier::Reject("logged read's dictating write is not a logged write");
        }
        if (!gs_.var_log_touched.insert({vid, cur}).second) {
          Verifier::Reject("variable log entry re-executed twice");
        }
        gs_.vars[vid].read_observers[entry.prec].push_back(cur);
        return *dictating.value;
      }
    }
  }
  std::optional<FoundWrite> found = FindNearestRPrecedingWrite(vid, cur);
  if (!found.has_value()) {
    return Value();  // Reads before any write observe the initial nil.
  }
  // Copy the value before touching gs_.vars: rehash of the outer table moves
  // the VerifierVar structs the pointer's vector lives behind (the vector's
  // heap buffer survives a move, but keeping the copy first makes the
  // lifetime obvious).
  Value result = *found->value;
  gs_.vars[vid].read_observers[found->op].push_back(cur);
  return result;
}

// Figure 21, OnWrite — with one recovery beyond the paper's pseudocode:
// back-filled log entries carry a nil predecessor, so their position in the
// write chain is recovered through FindNearestRPrecedingWrite, keeping the
// reconstructed history connected.
void ReplayCtx::WriteLane(VarId vid, const OpRef& cur, const Value& value) {
  if (!IsDeclared(vid)) {
    Verifier::Reject("re-executed write of an undeclared variable");
  }
  // The variable's dictionary keeps every written version, keyed by handler
  // and opnum (§4.2). `nearest` is consumed only for its OpRef below: the
  // emplace may reallocate the very vector its value pointer aims into.
  std::optional<FoundWrite> nearest = FindNearestRPrecedingWrite(vid, cur);
  gs_.vars[vid].var_dict[{cur.rid, cur.hid}].emplace_back(cur.opnum, value);
  if (!is_init_) {
    auto log_it = v_.var_log_idx_.find(vid);
    if (log_it != v_.var_log_idx_.end()) {
      auto entry_it = log_it->second.find(cur);
      if (entry_it != log_it->second.end()) {
        const VarLogEntry& entry = *entry_it->second;
        if (entry.kind != VarLogEntry::Kind::kWrite) {
          Verifier::Reject("variable log entry for a write is marked as a read");
        }
        if (!(entry.value == value)) {
          Verifier::Reject("re-executed write value does not match the variable log");
        }
        if (!gs_.var_log_touched.insert({vid, cur}).second) {
          Verifier::Reject("variable log entry re-executed twice");
        }
        if (!entry.prec.IsNil()) {
          ResolvedVarEntry prec = v_.ResolveVarEntry(vid, entry.prec);
          if (!prec.present || !prec.is_write) {
            Verifier::Reject("logged write's predecessor is not a logged write");
          }
          LinkWrite(vid, entry.prec, cur);
          return;
        }
      }
    }
  }
  // Unlogged write, or a back-filled entry (nil predecessor): link into the
  // chain through the nearest R-preceding write.
  if (nearest.has_value()) {
    LinkWrite(vid, nearest->op, cur);
  } else {
    const Verifier::VerifierVar* base = BaseVar(vid);
    Verifier::VerifierVar& local = gs_.vars[vid];
    if (!local.initializer.IsNil() || (base != nullptr && !base->initializer.IsNil())) {
      Verifier::Reject("variable has two initializing writes");
    }
    local.initializer = cur;
    gs_.claims.push_back(
        {Verifier::GroupState::Claim::Kind::kInitializer, vid, OpRef{}, cur});
  }
}

// The dictionary interrogation of §4.2: the last write by this handler before
// `cur`, else the last write by the nearest ancestor (walking activator
// links), falling back to the initialization pseudo-handler I. Consults the
// group's local dictionary first, then the post-init base dictionary — the
// climb only ever visits this group's own requests plus the init request, so
// no other group's writes can be observed.
std::optional<FoundWrite> ReplayCtx::FindNearestRPrecedingWrite(VarId vid, const OpRef& cur) {
  const Verifier::VerifierVar* base = BaseVar(vid);
  Verifier::VerifierVar* local = LocalVar(vid);
  RequestId rid = cur.rid;
  HandlerId h = cur.hid;
  bool same_handler = true;
  while (true) {
    const std::vector<std::pair<OpNum, Value>>* writes_ptr = nullptr;
    const std::pair<RequestId, HandlerId> key{rid, h};
    if (local != nullptr) {
      auto it = local->var_dict.find(key);
      if (it != local->var_dict.end() && !it->second.empty()) {
        writes_ptr = &it->second;
      }
    }
    if (writes_ptr == nullptr && base != nullptr) {
      auto it = base->var_dict.find(key);
      if (it != base->var_dict.end() && !it->second.empty()) {
        writes_ptr = &it->second;
      }
    }
    if (writes_ptr != nullptr) {
      const auto& writes = *writes_ptr;
      if (same_handler) {
        // Last write strictly before cur.opnum (entries are opnum-sorted).
        const std::pair<OpNum, Value>* best = nullptr;
        for (const auto& w : writes) {
          if (w.first < cur.opnum) {
            best = &w;
          } else {
            break;
          }
        }
        if (best != nullptr) {
          return FoundWrite{OpRef{rid, h, best->first}, &best->second};
        }
      } else {
        return FoundWrite{OpRef{rid, h, writes.back().first}, &writes.back().second};
      }
    }
    if (rid == kInitRequestId) {
      return std::nullopt;  // Climbed past I: no write exists.
    }
    same_handler = false;
    auto parents_it = gs_.parents.find(rid);
    HandlerId parent = kNoHandler;
    if (parents_it != gs_.parents.end()) {
      auto p = parents_it->second.find(h);
      if (p != parents_it->second.end()) {
        parent = p->second;
      }
    }
    if (parent == kNoHandler) {
      // Request handlers are activated by I (§3).
      rid = kInitRequestId;
      h = kInitHandlerId;
    } else {
      h = parent;
    }
  }
}

void Verifier::RunInitialization() {
  if (!program_.init()) {
    return;
  }
  // The init run is an ordinary isolated execution whose delta becomes the
  // read-only base state every group executes against. Rejections propagate
  // directly (the verifier trusts its own init run; a throw here is a
  // program/advice mismatch surfaced before any group runs).
  GroupState gs;
  {
    Arena arena;
    ReplayCtx ctx(this, &gs, {kInitRequestId}, kInitHandlerId, MultiValue(), /*is_init=*/true,
                  &arena);
    program_.init()(ctx);
    gs.arena_bytes = arena.bytes_allocated();
  }
  MergeGroup(gs);
}

void Verifier::ReExec() {
  // Group requests by their (alleged) tag; groups merge in order of their
  // earliest request id, which is deterministic but otherwise arbitrary
  // (Lemma 1: all well-formed orders are equivalent). The audit re-executes
  // one epoch's requests at a time — its groups partition the epoch, not the
  // whole trace (tags never span epochs; a tag that tried would leave its
  // handler un-run and reject below).
  std::map<uint64_t, std::vector<RequestId>> by_tag;
  for (RequestId rid : epoch_rids_) {
    auto it = advice_->tags.find(rid);
    if (it == advice_->tags.end()) {
      Reject("no re-execution tag for request " + std::to_string(rid));
    }
    by_tag[it->second].push_back(rid);
  }
  std::vector<const std::vector<RequestId>*> groups;
  groups.reserve(by_tag.size());
  for (const auto& [tag, rids] : by_tag) {
    groups.push_back(&rids);
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto* a, const auto* b) { return a->front() < b->front(); });

  // Execute every group in isolation (possibly concurrently), then merge the
  // deltas in group-index order. The merge — not the execution schedule —
  // decides the audit outcome, so any thread count yields the same result.
  std::vector<GroupState> states(groups.size());
  size_t executed_count = groups.size();
  unsigned threads = WorkStealingPool::ResolveThreads(config_.threads);
  if (threads > 1 && groups.size() > 1) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<WorkStealingPool>(threads);
    }
    pool_->ParallelFor(groups.size(),
                       [&](size_t i) { states[i] = ExecuteGroup(*groups[i]); });
  } else {
    // Serial oracle path: same isolated execution and merge, no pool. A
    // locally rejected group ends the merge at or before its index, so later
    // groups need not execute at all.
    executed_count = 0;
    for (size_t i = 0; i < groups.size(); ++i) {
      states[i] = ExecuteGroup(*groups[i]);
      ++executed_count;
      if (states[i].rejected) {
        break;
      }
    }
  }
  for (size_t i = 0; i < executed_count; ++i) {
    MergeGroup(states[i]);
    ++stats_.groups;
    stats_.group_lane_total += groups[i]->size();
  }

  // Every handler the advice mentions must have been re-executed (Figure 18
  // line 64) and every request must have produced its response.
  for (const auto& [key, count] : advice_->opcounts) {
    if (executed_.count(key) == 0) {
      Reject("advice mentions a handler that re-execution never ran");
    }
  }
  for (RequestId rid : epoch_rids_) {
    if (responded_.count(rid) == 0) {
      Reject("request " + std::to_string(rid) + " produced no response during re-execution");
    }
  }
  // Every variable-log entry must have been produced by re-execution, or the
  // log could feed values from operations that never happened.
  if (var_log_touched_.size() != advice_->var_log_entry_count()) {
    Reject("variable log contains entries that re-execution never produced");
  }
}

Verifier::GroupState Verifier::ExecuteGroup(const std::vector<RequestId>& rids) {
  GroupState gs;
  try {
    ReExecGroup(rids, &gs);
  } catch (const RejectError& e) {
    gs.rejected = true;
    gs.reason = e.reason;
    gs.rule = e.rule;
  } catch (const std::exception& e) {
    // Faults from re-executed application code are captured here (never
    // propagated across pool threads) and re-raised during the ordered
    // merge, where Audit() wraps them as "re-execution fault: ...".
    gs.rejected = true;
    gs.fault = true;
    gs.reason = e.what();
  }
  return gs;
}

void Verifier::MergeGroup(GroupState& gs) {
  // Non-conflicting deltas first: var-dict entries and read-observer pushes
  // append (keys are per-request, disjoint across groups), the bookkeeping
  // sets are unions of disjoint key spaces, untracked overlays apply in
  // group order.
  for (auto& [vid, local] : gs.vars) {
    VerifierVar& var = vars_[vid];
    for (auto& [key, writes] : local.var_dict) {
      auto& dst = var.var_dict[key];
      if (dst.empty()) {
        dst = std::move(writes);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(writes.begin()),
                   std::make_move_iterator(writes.end()));
      }
    }
    for (auto& [prec, readers] : local.read_observers) {
      auto& dst = var.read_observers[prec];
      dst.insert(dst.end(), readers.begin(), readers.end());
    }
  }
  for (auto& [vid, value] : gs.untracked) {
    untracked_vars_[vid] = std::move(value);
  }
  for (auto& [rid, per_request] : gs.parents) {
    auto& dst = parents_[rid];
    for (const auto& [hid, parent] : per_request) {
      dst[hid] = parent;
    }
  }
  for (const auto& [txn, position] : gs.tx_positions) {
    tx_positions_[txn] = position;
  }
  executed_.insert(gs.executed.begin(), gs.executed.end());
  responded_.insert(gs.responded.begin(), gs.responded.end());
  var_log_touched_.insert(gs.var_log_touched.begin(), gs.var_log_touched.end());
  stats_.Merge(gs.stats);
  profile_.arena_bytes += gs.arena_bytes;

  // Shared-variable claims, replayed in the order the group issued them.
  // Each was pre-checked against base + the group's own state; re-checking
  // against the merged state catches exactly the cross-group conflicts, at
  // the same program point (and with the same reason) the serial execution
  // would have caught them.
  for (const GroupState::Claim& claim : gs.claims) {
    VerifierVar& var = vars_[claim.vid];
    switch (claim.kind) {
      case GroupState::Claim::Kind::kDeclare:
        if (var.declared) {
          Reject("variable declared twice during re-execution");
        }
        var.declared = true;
        var.request_scoped = claim.request_scoped;
        break;
      case GroupState::Claim::Kind::kInitializer:
        if (!var.initializer.IsNil()) {
          Reject("variable has two initializing writes");
        }
        var.initializer = claim.cur;
        break;
      case GroupState::Claim::Kind::kChainLink:
        if (var.write_observer.count(claim.prec) > 0) {
          Reject("two writes overwrite the same value");
        }
        var.write_observer[claim.prec] = claim.cur;
        break;
    }
  }

  // The group's own captured outcome comes after its claims: a group stops
  // executing at its first failure, so every recorded claim precedes it.
  if (gs.rejected) {
    if (gs.fault) {
      throw std::runtime_error(gs.reason);
    }
    throw RejectError(gs.rule, gs.reason);
  }
}

void Verifier::ReExecGroup(const std::vector<RequestId>& rids, GroupState* gs) {
  std::vector<Value> inputs;
  inputs.reserve(rids.size());
  for (RequestId rid : rids) {
    inputs.push_back(request_inputs_.at(rid));
  }
  MultiValue group_input = MultiValue::Expanded(std::move(inputs));

  std::deque<PendingActivation> active;
  FlatSet<HandlerId> enqueued;
  for (const auto& [event, function] : global_handlers_) {
    if (event != EventId(kRequestEventName)) {
      continue;
    }
    HandlerId hid = ComputeHandlerId(function, kNoHandler, 0);
    for (RequestId rid : rids) {
      if (!opcount_idx_.contains({rid, hid})) {
        Reject("request handler missing from opcounts");
      }
      gs->parents[rid][hid] = kNoHandler;
    }
    if (!enqueued.insert(hid).second) {
      Reject("duplicate request handler activation");
    }
    active.push_back(PendingActivation{hid, function, group_input});
  }
  // One arena for the whole group, rewound between handler executions: the
  // per-handler scratch (lane opcounts, open-transaction tid arrays) dies
  // with its ReplayCtx, so Reset() reuses the same blocks with zero frees.
  Arena arena;
  while (!active.empty()) {
    PendingActivation next = std::move(active.front());
    active.pop_front();
    const FunctionDef* def = program_.FindFunction(next.function);
    if (def == nullptr) {
      Reject("activation of an unknown function");
    }
    arena.Reset();
    ReplayCtx ctx(this, gs, rids, next.hid, std::move(next.input), /*is_init=*/false, &arena);
    ctx.active = &active;
    ctx.enqueued_hids = &enqueued;
    ++gs->stats.handler_executions;
    gs->stats.handler_lanes += rids.size();
    def->fn(ctx);
    for (RequestId rid : rids) {
      auto it = opcount_idx_.find({rid, next.hid});
      if (it == opcount_idx_.end() || it->second != ctx.ops_issued()) {
        Reject("handler issued fewer operations than its opcount");
      }
      gs->executed.insert({rid, next.hid});
    }
  }
  gs->arena_bytes = arena.bytes_allocated();
}

}  // namespace karousos
