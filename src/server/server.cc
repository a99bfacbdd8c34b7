#include "src/server/server.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/apps/app_util.h"

namespace karousos {

const char* CollectModeName(CollectMode mode) {
  switch (mode) {
    case CollectMode::kOff:
      return "unmodified";
    case CollectMode::kKarousos:
      return "karousos";
    case CollectMode::kOrochi:
      return "orochi-js";
  }
  return "?";
}

namespace {

[[noreturn]] void AppBug(const char* what) {
  std::fprintf(stderr, "karousos server: application error: %s\n", what);
  std::abort();
}

// Salt for the event/function name-digest memo (EventId and function ids are
// both DigestOf(name), so one lane serves both).
constexpr uint64_t kNameSalt = 1;

}  // namespace

// The Ctx implementation for online execution (lane width 1). One instance
// per handler activation; also used (with rid == kInitRequestId) for the
// initialization pseudo-handler I, whose operations are *not* reported in the
// advice — the verifier re-runs initialization itself (Figure 14 line 20).
class ServerCtx : public Ctx {
 public:
  ServerCtx(Server* server, RequestId rid, HandlerId hid, LabelStore::Ref label,
            const Value& payload, ServerRunResult* result)
      : server_(*server),
        rid_(rid),
        hid_(hid),
        label_ref_(label),
        input_(MultiValue(payload)),
        result_(result) {}

  const MultiValue& Input() const override { return input_; }

  void DeclareVar(std::string_view name, VarScope scope) override {
    VarId vid = server_.varid_cache_.Resolve(name, scope, rid_);
    if (scope == VarScope::kUntracked) {
      Server::UntrackedVar& var = server_.untracked_vars_[vid];
      var.value = Value();
      var.name = std::string(name);
      var.written = false;
      return;
    }
    OpNum opnum = NextOp();
    auto& var = server_.tracked_vars_[vid];
    if (var.declared) {
      AppBug("variable declared twice");
    }
    var.declared = true;
    var.last_is_declaration = true;
    var.last_write_logged = false;
    var.value = Value();
    if (instrumented()) {
      var.last_write = OpRef{rid_, hid_, opnum};
      var.last_write_label = label_ref_;
    }
  }

  MultiValue ReadVar(std::string_view name, VarScope scope) override {
    VarId vid = server_.varid_cache_.Resolve(name, scope, rid_);
    if (scope == VarScope::kUntracked) {
      Server::UntrackedVar& var = server_.untracked_vars_[vid];
      RecordUntrackedAccess(UntrackedAccess::Kind::kRead, vid, var);
      LintUntrackedAccess(var);
      return MultiValue(var.value);
    }
    auto it = server_.tracked_vars_.find(vid);
    if (it == server_.tracked_vars_.end() || !it->second.declared) {
      AppBug("read of undeclared variable");
    }
    Server::TrackedVar& var = it->second;
    ++result_->var_accesses;
    if (!instrumented()) {
      return MultiValue(var.value);
    }
    OpNum opnum = NextOp();
    // Figure 13, OnRead: log iff R-concurrent with the dictating write (or
    // always, in Orochi mode). Init-handler ops are never logged but do feed
    // the R test (I R-precedes everything).
    OpRef cur{rid_, hid_, opnum};
    // Reads whose dictating write is the init handler's are R-ordered by
    // definition (I precedes everything) and are never logged — even in
    // Orochi log-all mode, where a log entry could not reference the init
    // write (init operations are re-created by the verifier, not logged).
    bool log_read =
        (server_.config_.mode == CollectMode::kOrochi ||
         RConcurrent(cur, label(), var.last_write, server_.label_store_.Get(var.last_write_label))) &&
        var.last_write.rid != kInitRequestId && !var.last_is_declaration;
    if (log_read && rid_ != kInitRequestId) {
      EnsureWriteLogged(vid, var);
      VarLogEntry entry;
      entry.kind = VarLogEntry::Kind::kRead;
      entry.prec = var.last_write;
      SerializeOpRef(cur, &server_.advice_spool_);
      SerializeOpRef(entry.prec, &server_.advice_spool_);
      server_.builder_.AddVarEntry(vid, cur, std::move(entry));
    }
    return MultiValue(var.value);
  }

  void WriteVar(std::string_view name, VarScope scope, const MultiValue& value) override {
    VarId vid = server_.varid_cache_.Resolve(name, scope, rid_);
    if (!value.collapsed()) {
      AppBug("expanded multivalue written at width-1 server");
    }
    if (scope == VarScope::kUntracked) {
      Server::UntrackedVar& var = server_.untracked_vars_[vid];
      RecordUntrackedAccess(UntrackedAccess::Kind::kWrite, vid, var);
      LintUntrackedAccess(var);
      var.value = value.CollapsedValue();
      if (server_.config_.annotation_lint && instrumented()) {
        var.written = true;
        var.last_write = OpRef{rid_, hid_, ++lint_opnum_};
        var.last_write_label = label_ref_;
      }
      return;
    }
    auto it = server_.tracked_vars_.find(vid);
    if (it == server_.tracked_vars_.end() || !it->second.declared) {
      AppBug("write of undeclared variable");
    }
    Server::TrackedVar& var = it->second;
    ++result_->var_accesses;
    if (!instrumented()) {
      var.value = value.CollapsedValue();
      return;
    }
    OpNum opnum = NextOp();
    OpRef cur{rid_, hid_, opnum};
    // Figure 13, OnWrite: log iff R-concurrent with the preceding write.
    bool log_write =
        server_.config_.mode == CollectMode::kOrochi ||
        RConcurrent(cur, label(), var.last_write, server_.label_store_.Get(var.last_write_label));
    bool logged = log_write && rid_ != kInitRequestId;
    if (logged) {
      EnsureWriteLogged(vid, var);
      VarLogEntry entry;
      entry.kind = VarLogEntry::Kind::kWrite;
      entry.value = value.CollapsedValue();
      // Init-handler and declaration predecessors are not loggable; the
      // verifier recovers the chain link through FindNearestRPrecedingWrite
      // (nil-prec path).
      entry.prec = var.last_write.rid == kInitRequestId || var.last_is_declaration
                       ? kNilOp
                       : var.last_write;
      SerializeOpRef(cur, &server_.advice_spool_);
      // The prec, when logged, wrote var.value: spool the patch over it.
      FieldEncoder spool(KsegCompression{}, &server_.advice_spool_);
      WriteStoredWrite(entry.prec.IsNil() ? VarWriteDiff{} : DiffVarWrite(entry.value, var.value),
                       entry.value, &spool);
      server_.builder_.AddVarEntry(vid, cur, std::move(entry));
    }
    var.value = value.CollapsedValue();
    var.last_is_declaration = false;
    var.last_write = cur;
    var.last_write_label = label_ref_;
    var.last_write_logged = logged;
  }

  bool Branch(const MultiValue& condition) override {
    bool truth = condition.CollapsedValue().Truthy();
    if (instrumented()) {
      cf_digest_.Update(static_cast<uint64_t>(truth));
    }
    return truth;
  }

  void Emit(std::string_view event, const MultiValue& payload) override {
    if (rid_ == kInitRequestId) {
      AppBug("initialization function may not emit events");
    }
    OpNum opnum = NextOp();
    uint64_t event_id = server_.NameDigest(event);
    Server::RequestState& req = server_.requests_[rid_];
    if (instrumented()) {
      HandlerLogEntry e;
      e.kind = HandlerLogEntry::Kind::kEmit;
      e.hid = hid_;
      e.opnum = opnum;
      e.event = event_id;
      req.handler_log.Append(&server_.arena_, e);
    }
    Server::PendingEvent pending;
    pending.event = event_id;
    pending.payload = payload.CollapsedValue();
    pending.activator_hid = hid_;
    pending.activator_opnum = opnum;
    req.pending.push_back(std::move(pending));
  }

  void RegisterHandler(std::string_view event, std::string_view function) override {
    OpNum opnum = NextOp();
    uint64_t event_id = server_.NameDigest(event);
    FunctionId function_id = server_.NameDigest(function);
    if (server_.program_.FindFunction(function_id) == nullptr) {
      AppBug("registration of unknown function");
    }
    if (rid_ == kInitRequestId) {
      server_.global_handlers_.push_back({event_id, function_id});
      return;
    }
    Server::RequestState& req = server_.requests_[rid_];
    if (instrumented()) {
      HandlerLogEntry e;
      e.kind = HandlerLogEntry::Kind::kRegister;
      e.hid = hid_;
      e.opnum = opnum;
      e.event = event_id;
      e.function = function_id;
      req.handler_log.Append(&server_.arena_, e);
    }
    req.registered.push_back({event_id, function_id});
  }

  void UnregisterHandler(std::string_view event, std::string_view function) override {
    if (rid_ == kInitRequestId) {
      AppBug("initialization function may not unregister handlers");
    }
    OpNum opnum = NextOp();
    uint64_t event_id = server_.NameDigest(event);
    FunctionId function_id = server_.NameDigest(function);
    Server::RequestState& req = server_.requests_[rid_];
    if (instrumented()) {
      HandlerLogEntry e;
      e.kind = HandlerLogEntry::Kind::kUnregister;
      e.hid = hid_;
      e.opnum = opnum;
      e.event = event_id;
      e.function = function_id;
      req.handler_log.Append(&server_.arena_, e);
    }
    auto& regs = req.registered;
    for (auto it = regs.begin(); it != regs.end(); ++it) {
      if (it->event == event_id && it->function == function_id) {
        regs.erase(it);
        return;
      }
    }
  }

  TxHandle TxStart() override {
    OpNum opnum = NextOp();
    ++result_->state_ops;
    TxId tid = DigestOfInts(rid_, hid_, opnum);
    if (server_.store_.Begin(rid_, tid) != TxStatus::kOk) {
      AppBug("transaction id collision");
    }
    if (instrumented()) {
      TxOperation op;
      op.type = TxOpType::kTxStart;
      op.hid = hid_;
      op.opnum = opnum;
      server_.builder_.TxLog(TxnKey{rid_, tid}).push_back(std::move(op));
    }
    TxHandle handle;
    handle.slot = static_cast<uint32_t>(open_txns_.size());
    handle.valid = true;
    open_txns_.push_back(tid);
    return handle;
  }

  TxGetResult TxGet(TxHandle tx, const MultiValue& key) override {
    TxGetResult out;
    OpNum opnum = NextOp();
    ++result_->state_ops;
    TxId tid = TidOf(tx);
    std::string key_str(key.CollapsedValue().AsString());
    KvGetResult got = server_.store_.Get(rid_, tid, key_str);
    if (got.status == TxStatus::kConflict) {
      ++result_->conflicts;
      if (instrumented()) {
        server_.builder_.AddNondet(OpRef{rid_, hid_, opnum},
                                   NondetRecord{NondetRecord::Kind::kConflict, Value()});
      }
      out.conflict = true;
      return out;
    }
    if (got.status != TxStatus::kOk) {
      AppBug("GET on invalid transaction");
    }
    if (instrumented()) {
      TxOperation op;
      op.type = TxOpType::kGet;
      op.hid = hid_;
      op.opnum = opnum;
      op.key = key_str;
      op.get_found = got.found;
      op.get_from = got.found ? got.dictating_write : kNilTxOp;
      server_.builder_.TxLog(TxnKey{rid_, tid}).push_back(std::move(op));
    }
    out.value = MultiValue(got.value);
    out.found = MultiValue(Value(got.found));
    return out;
  }

  bool TxPut(TxHandle tx, const MultiValue& key, const MultiValue& value) override {
    OpNum opnum = NextOp();
    ++result_->state_ops;
    TxId tid = TidOf(tx);
    std::string key_str(key.CollapsedValue().AsString());
    // The PUT's index within the transaction log identifies it as a version;
    // it must be computed before appending (1-based position).
    TxnKey txn{rid_, tid};
    uint32_t index = instrumented()
                         ? static_cast<uint32_t>(server_.builder_.TxLog(txn).size()) + 1
                         : server_.NextUninstrumentedPutIndex(txn);
    TxStatus status = server_.store_.Put(rid_, tid, index, key_str, value.CollapsedValue());
    if (status == TxStatus::kConflict) {
      ++result_->conflicts;
      if (instrumented()) {
        server_.builder_.AddNondet(OpRef{rid_, hid_, opnum},
                                   NondetRecord{NondetRecord::Kind::kConflict, Value()});
      }
      return false;
    }
    if (status != TxStatus::kOk) {
      AppBug("PUT on invalid transaction");
    }
    if (instrumented()) {
      TxOperation op;
      op.type = TxOpType::kPut;
      op.hid = hid_;
      op.opnum = opnum;
      op.key = key_str;
      op.put_value = value.CollapsedValue();
      server_.advice_spool_.WriteString(op.key);
      server_.advice_spool_.WriteValue(op.put_value);
      server_.builder_.TxLog(txn).push_back(std::move(op));
    }
    return true;
  }

  bool TxCommit(TxHandle tx) override {
    OpNum opnum = NextOp();
    ++result_->state_ops;
    TxId tid = TidOf(tx);
    TxStatus status = server_.store_.Commit(rid_, tid);
    if (instrumented()) {
      TxOperation op;
      op.type = status == TxStatus::kOk ? TxOpType::kTxCommit : TxOpType::kTxAbort;
      op.hid = hid_;
      op.opnum = opnum;
      server_.builder_.TxLog(TxnKey{rid_, tid}).push_back(std::move(op));
    }
    return status == TxStatus::kOk;
  }

  void TxAbort(TxHandle tx) override {
    OpNum opnum = NextOp();
    ++result_->state_ops;
    TxId tid = TidOf(tx);
    server_.store_.Abort(rid_, tid);
    if (instrumented()) {
      TxOperation op;
      op.type = TxOpType::kTxAbort;
      op.hid = hid_;
      op.opnum = opnum;
      server_.builder_.TxLog(TxnKey{rid_, tid}).push_back(std::move(op));
    }
  }

  MultiValue AppWork(const MultiValue& seed, uint32_t units) override {
    if (!instrumented()) {
      return MvExpensive(seed, units);
    }
    // Instrumented app code must pass the activator's id to every function it
    // calls and keep the control-flow digest current (§5); the tax applies
    // per simulated call. The low-overhead instrumentation threads the
    // activator id through each call as an argument — one context mix per
    // simulated call — instead of saving and restoring the activation context
    // around it, and flushes the context to memory once per activation rather
    // than per call. The produced value is identical to the plain run (the
    // h chain never touches the context).
    HandlerId hid = hid_;
    uint64_t context_slot = hid;
    MultiValue result = MultiValue::Map(seed, [units, hid, &context_slot](const Value& v) {
      uint64_t h = v.DigestValue();
      uint64_t context = context_slot;
      for (uint32_t i = 0; i < units; ++i) {
        h = Avalanche(h + i);
        // One full mix threads the call result through the context; the
        // activator id rides along as a half-round fold instead of the
        // second full mix the save/restore pair paid.
        context = Avalanche(context ^ h);
        context ^= context >> 30;
        context = context * 0x94d049bb133111ebULL + hid;
      }
      context_slot = context;
      char buf[17];
      int n = std::snprintf(buf, sizeof(buf), "%" PRIx64, h);
      return Value(std::string(buf, static_cast<size_t>(n)));
    });
    server_.instrumentation_sink_ = context_slot;
    return result;
  }

  MultiValue Random() override {
    OpNum opnum = NextOp();
    Value v(static_cast<int64_t>(server_.value_rng_->Below(1000000000)));
    if (instrumented()) {
      server_.builder_.AddNondet(OpRef{rid_, hid_, opnum},
                                 NondetRecord{NondetRecord::Kind::kValue, v});
    }
    return MultiValue(v);
  }

  void Respond(const MultiValue& body) override {
    if (rid_ == kInitRequestId) {
      AppBug("initialization function may not respond");
    }
    Server::RequestState& req = server_.requests_[rid_];
    if (req.responded) {
      AppBug("request responded twice");
    }
    req.responded = true;
    server_.trace_.events.push_back(
        TraceEvent{TraceEvent::Kind::kResponse, rid_, body.CollapsedValue()});
    if (server_.capture_responses_) {
      req.response = body.CollapsedValue();
    }
    if (instrumented()) {
      server_.builder_.AddResponse(rid_, hid_, ops_issued_);
    }
  }

  // Exposes the tid values so applications can hand a transaction across
  // handlers via event payloads (a transaction "split across multiple
  // handlers", §4.4).
  MultiValue TxIdValue(TxHandle tx) override { return MultiValue(Value(TidOf(tx))); }

  TxHandle TxResume(const MultiValue& tid_value) override {
    TxHandle handle;
    handle.slot = static_cast<uint32_t>(open_txns_.size());
    handle.valid = true;
    open_txns_.push_back(static_cast<TxId>(tid_value.CollapsedValue().AsInt()));
    return handle;
  }

  OpNum ops_issued() const { return ops_issued_; }
  uint64_t cf_digest() const { return cf_digest_.Finish(); }

 private:
  bool instrumented() const { return server_.config_.mode != CollectMode::kOff; }

  // This activation's interned label. The reference is only used transiently
  // (no labels are interned while an activation runs, so it cannot dangle).
  const HandlerLabel& label() const { return server_.label_store_.Get(label_ref_); }

  OpNum NextOp() {
    ++result_->ops_executed;
    return ++ops_issued_;
  }

  TxId TidOf(TxHandle tx) const {
    if (!tx.valid || tx.slot >= open_txns_.size()) {
      AppBug("use of invalid transaction handle");
    }
    return open_txns_[tx.slot];
  }

  // Feeds the §5-precondition race detector (src/analysis/race.h). Labels
  // only exist in instrumented modes; an uninstrumented run records nothing.
  void RecordUntrackedAccess(UntrackedAccess::Kind kind, VarId vid,
                             const Server::UntrackedVar& var) {
    if (!instrumented() || !server_.config_.record_untracked_accesses) {
      return;
    }
    UntrackedAccess rec;
    rec.kind = kind;
    rec.vid = vid;
    rec.name = var.name;
    rec.rid = rid_;
    rec.hid = hid_;
    rec.label = label();
    rec.seq = ++untracked_seq_;
    result_->untracked_accesses.push_back(std::move(rec));
  }

  // Shadow R-concurrency check for unannotated variables (annotation
  // advisor). Accesses R-concurrent with the variable's most recent write
  // mean the developer must annotate it as loggable.
  void LintUntrackedAccess(Server::UntrackedVar& var) {
    if (!server_.config_.annotation_lint || !instrumented() || !var.written ||
        rid_ == kInitRequestId) {
      return;
    }
    OpRef cur{rid_, hid_, lint_opnum_ + 1};
    if (RConcurrent(cur, label(), var.last_write,
                    server_.label_store_.Get(var.last_write_label)) &&
        var.last_write.rid != kInitRequestId) {
      ++result_->lint_violations[var.name];
    }
  }

  // Back-fills the log entry for the variable's most recent write, per
  // Figure 13 lines 14-15 / 21-22 (the write predates the decision to log).
  // The last_write_logged flag stands in for the membership test the ordered
  // map used to answer (the builder's append lanes have no keyed lookup).
  void EnsureWriteLogged(VarId vid, Server::TrackedVar& var) {
    if (var.last_is_declaration) {
      return;  // Declarations are not writes; nothing to back-fill.
    }
    if (var.last_write.rid == kInitRequestId) {
      return;  // Initialization writes are re-created by the verifier's own
               // init run; they are never logged (I R-precedes everything,
               // so an honest Karousos server wouldn't reach here, but the
               // Orochi log-all mode does).
    }
    if (var.last_write_logged) {
      return;
    }
    VarLogEntry entry;
    entry.kind = VarLogEntry::Kind::kWrite;
    entry.value = var.value;
    entry.prec = kNilOp;
    SerializeOpRef(var.last_write, &server_.advice_spool_);
    server_.advice_spool_.WriteValue(entry.value);
    server_.builder_.AddVarEntry(vid, var.last_write, std::move(entry));
    var.last_write_logged = true;
  }

  Server& server_;
  RequestId rid_;
  HandlerId hid_;
  LabelStore::Ref label_ref_;
  MultiValue input_;
  ServerRunResult* result_;
  OpNum ops_issued_ = 0;
  // Shadow counter for lint-mode untracked accesses: keeps their coordinates
  // distinct without perturbing the real opnum stream.
  OpNum lint_opnum_ = 0;
  // Per-activation position counter for the untracked-access log.
  uint32_t untracked_seq_ = 0;
  Digest cf_digest_;
  std::vector<TxId> open_txns_;
};

Server::Server(const Program& program, const ServerConfig& config)
    : program_(program),
      config_(config),
      store_(config.isolation),
      sched_rng_(std::make_unique<Rng>(config.seed * 2 + 1)),
      value_rng_(std::make_unique<Rng>(config.seed * 2 + 2)) {}

Server::~Server() = default;

uint64_t Server::NameDigest(std::string_view name) {
  return name_cache_.Get(name, kNameSalt, [&] { return DigestOf(name); });
}

ServerRunResult Server::Run(const std::vector<Value>& request_inputs) {
  BeginRun(request_inputs.size());
  size_t next = 0;
  while (next < request_inputs.size() || !in_flight_.empty()) {
    while (in_flight_.size() < static_cast<size_t>(config_.concurrency) &&
           next < request_inputs.size()) {
      InjectRequest(request_inputs[next]);
      ++next;
    }
    if (!StepOne()) {
      break;  // Every in-flight request is drained; if any is unresponded the
              // trace will be unbalanced, which audits surface loudly.
    }
  }
  return FinishRun();
}

void Server::BeginRun(size_t expected_requests) {
  run_ = std::make_unique<ServerRunResult>();
  current_result_ = run_.get();
  requests_.clear();
  requests_.reserve(expected_requests + 1);
  requests_.resize(1);  // Slot 0 unused; rids run 1..N.
  in_flight_.clear();
  completed_.clear();
  responses_delivered_ = 0;
  warm_ = config_.warmup_requests == 0;

  // Initialization: runs as pseudo-handler I. Its registrations become the
  // global handlers; its variable writes seed the tracked variables.
  {
    ServerCtx init_ctx(this, kInitRequestId, kInitHandlerId, LabelStore::kEmpty, Value(),
                       run_.get());
    if (program_.init()) {
      program_.init()(init_ctx);
    }
  }
  serve_start_ = std::chrono::steady_clock::now();
}

RequestId Server::InjectRequest(const Value& input) {
  RequestId rid = static_cast<RequestId>(requests_.size());
  trace_.events.push_back(TraceEvent{TraceEvent::Kind::kRequest, rid, input});
  requests_.emplace_back();
  RequestState& req = requests_[rid];
  req.input = input;
  if (config_.measure_request_latencies) {
    req.arrival = std::chrono::steady_clock::now();
  }
  PendingEvent arrival;
  arrival.event = EventId(kRequestEventName);
  arrival.payload = req.input;
  arrival.activator_hid = kNoHandler;
  arrival.activator_opnum = 0;
  req.pending.push_back(std::move(arrival));
  in_flight_.push_back(rid);
  return rid;
}

bool Server::has_runnable() const {
  for (RequestId rid : in_flight_) {
    if (!requests_[rid].pending.empty()) {
      return true;
    }
  }
  return false;
}

bool Server::StepOne() {
  // Candidates: in-flight requests with pending events, in rid order for
  // determinism; the scheduler picks one uniformly.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (!requests_[in_flight_[i]].pending.empty()) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  size_t pick = candidates[sched_rng_->Below(candidates.size())];
  RequestId rid = in_flight_[pick];
  RequestState& req = requests_[rid];
  // KEM's dispatch loop selects non-deterministically from the *set* of
  // pending events (§3). Under load, I/O completions (child-handler
  // events) finish out of order; we model that by widening the selection
  // window with the number of in-flight requests. With one request in
  // flight the loop is FIFO — no reordering without concurrency, matching
  // the paper's observation that reordering grows with concurrency.
  size_t window = std::min(req.pending.size(), in_flight_.size());
  size_t slot = window > 1 ? sched_rng_->Below(window) : 0;
  PendingEvent event = std::move(req.pending[slot]);
  req.pending.erase(req.pending.begin() + static_cast<long>(slot));
  DispatchEvent(rid, event, run_.get());
  if (req.pending.empty() && req.responded) {
    in_flight_.erase(in_flight_.begin() + static_cast<long>(pick));
    ++responses_delivered_;
    if (config_.measure_request_latencies) {
      run_->request_latencies.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - req.arrival)
              .count());
    }
    if (capture_responses_) {
      completed_.push_back(CompletedRequest{rid, std::move(req.response)});
    }
    if (!warm_ && responses_delivered_ >= config_.warmup_requests) {
      warm_ = true;
      serve_start_ = std::chrono::steady_clock::now();
    }
  }
  return true;
}

std::vector<CompletedRequest> Server::TakeCompleted() {
  std::vector<CompletedRequest> out = std::move(completed_);
  completed_.clear();
  return out;
}

ServerRunResult Server::FinishRun() {
  ServerRunResult& result = *run_;
  result.serve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - serve_start_).count();

  if (instrumented()) {
    for (RequestId rid = 1; rid < requests_.size(); ++rid) {
      RequestState& req = requests_[rid];
      uint64_t tag = config_.mode == CollectMode::kKarousos ? DigestOfInts(req.tree_tag_acc)
                                                            : req.seq_tag.Finish();
      builder_.AddRequest(rid, tag, req.handler_log.ToVector());
    }
    builder_.SetWriteOrder(store_.binlog());
  }

  result.advice_spool_bytes = advice_spool_.size();
  result.trace = std::move(trace_);
  result.advice = builder_.Finalize();
  result.var_log_entries = result.advice.var_log_entry_count();
  trace_ = Trace{};
  requests_.clear();
  in_flight_.clear();
  arena_.Reset();
  current_result_ = nullptr;
  ServerRunResult out = std::move(*run_);
  run_.reset();
  return out;
}

void Server::DispatchEvent(RequestId rid, const PendingEvent& event, ServerRunResult* result) {
  // Canonical activation order: global handlers in registration order, then
  // the request's own registrations in registration order. The verifier's
  // AddHandlerRelatedEdges iterates the same way; the orders must agree.
  // DispatchEvent never nests (handlers queue events; they don't dispatch),
  // so one scratch list serves the whole run.
  std::vector<FunctionId>& matched = matched_scratch_;
  matched.clear();
  for (const Registration& reg : global_handlers_) {
    if (reg.event == event.event) {
      matched.push_back(reg.function);
    }
  }
  for (const Registration& reg : requests_[rid].registered) {
    if (reg.event == event.event) {
      matched.push_back(reg.function);
    }
  }
  for (FunctionId function : matched) {
    HandlerId hid;
    if (instrumented()) {
      hid = ComputeHandlerId(function, event.activator_hid, event.activator_opnum);
    } else {
      // Uninstrumented servers still need distinct per-request activation
      // identities for transaction ids; a counter is the cheap substitute.
      hid = ++requests_[rid].handler_count;
    }
    RunActivation(rid, function, hid, event.payload, event.activator_hid, result);
  }
}

void Server::RunActivation(RequestId rid, FunctionId function, HandlerId hid,
                           const Value& payload, HandlerId activator, ServerRunResult* result) {
  ++result->handler_activations;
  RequestState& req = requests_[rid];
  LabelStore::Ref label = LabelStore::kEmpty;
  if (instrumented()) {
    // label = parent_label / num (§5). Request handlers hang off the
    // per-request root (ref 0, the empty label — same slot the init
    // pseudo-handler uses).
    LabelStore::Ref parent = activator == kNoHandler ? LabelStore::kEmpty : req.labels[activator];
    label = label_store_.AppendChild(parent, req.child_counts[activator]++);
    req.labels[hid] = label;
    ++req.handler_count;
  }
  const FunctionDef* def = program_.FindFunction(function);
  if (def == nullptr) {
    AppBug("activation of unknown function");
  }
  ServerCtx ctx(this, rid, hid, label, payload, result);
  def->fn(ctx);
  if (instrumented()) {
    builder_.AddOpcount(rid, hid, ctx.ops_issued());
    uint64_t handler_digest = DigestOfInts(hid, ctx.cf_digest());
    req.tree_tag_acc = CombineUnordered(req.tree_tag_acc, handler_digest);
    req.seq_tag.Update(handler_digest);
  }
}

}  // namespace karousos
