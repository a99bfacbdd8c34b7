// The (instrumented) server: runs a KEM program against a stream of requests
// under simulated concurrency, producing the ground-truth trace and — unless
// instrumentation is off — the advice of §C.1.3.
//
// Concurrency model: the dispatch loop keeps up to `concurrency` requests in
// flight and, on each iteration, non-deterministically (seeded) selects one
// pending event among the in-flight requests, exactly as KEM's dispatch loop
// does (§3). Handlers run to completion; interleaving happens at handler
// granularity. More concurrency means more interleaving of different
// requests' handler activations, which is what creates R-concurrent accesses
// and drives the paper's overhead / advice-size trends.
//
// Instrumentation modes:
//   * kOff      — the "unmodified server" baseline of Figure 6: no ids, no
//                 labels, no logs; variables are plain storage.
//   * kKarousos — full §4/§5 advice collection: variable accesses are logged
//                 only when R-concurrent with the dictating/preceding write.
//   * kOrochi   — the Orochi-JS baseline (§6, "Baselines"): every tracked
//                 variable access is logged, and the grouping tag is a digest
//                 of the handler *sequence* rather than the handler tree.
//
// Record-path layout (DESIGN.md "Record path"): per-request state lives in a
// rid-indexed vector, handler logs append into arena-backed chunk lists,
// handler labels are interned in a LabelStore, variable/name digests are
// memoized, and all advice accumulation goes through AdviceBuilder — the
// ordered maps of the wire format are only materialized once, at the end of
// the run.
#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/access_log.h"
#include "src/common/arena.h"
#include "src/common/digest.h"
#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/kem/label.h"
#include "src/kem/program.h"
#include "src/kem/varid.h"
#include "src/server/advice.h"
#include "src/server/advice_builder.h"
#include "src/trace/trace.h"
#include "src/txkv/store.h"

namespace karousos {

enum class CollectMode : uint8_t { kOff, kKarousos, kOrochi };

const char* CollectModeName(CollectMode mode);

struct ServerConfig {
  CollectMode mode = CollectMode::kKarousos;
  IsolationLevel isolation = IsolationLevel::kSerializable;
  // Maximum number of requests concurrently in flight.
  int concurrency = 1;
  // Seed for the dispatch-loop scheduler and for Ctx::Random values.
  uint64_t seed = 1;
  // Requests used to warm the application before timing starts (§6.1 uses
  // the first 120 of 600); serve_seconds excludes time until the warmup-th
  // response is delivered.
  size_t warmup_requests = 0;
  // Annotation advisor (the paper's future-work item of automating the
  // loggable-variable annotations, §1/§5): when set (requires an
  // instrumented mode), accesses to *unannotated* variables are shadow-
  // checked for R-concurrency and violations are reported per variable, so
  // a developer learns exactly which variables must be marked loggable.
  bool annotation_lint = false;
  // Record every untracked-variable access (instrumented modes only) into
  // ServerRunResult::untracked_accesses, feeding the happens-before race
  // detector in src/analysis/race.h. Honest applications keep no mutable
  // untracked state, so the default-on recording costs nothing there.
  bool record_untracked_accesses = true;
  // Per-request latency capture (Figure 6 latency columns): when set, each
  // request's arrival-to-response-drain time is appended (in completion
  // order) to ServerRunResult::request_latencies.
  bool measure_request_latencies = false;
};

struct ServerRunResult {
  Trace trace;
  Advice advice;  // Empty when mode == kOff.
  // Wall-clock seconds serving the post-warmup requests (the whole run when
  // warmup_requests == 0).
  double serve_seconds = 0;
  // Work counters (bench diagnostics).
  size_t handler_activations = 0;
  size_t ops_executed = 0;
  size_t var_accesses = 0;
  size_t var_log_entries = 0;
  size_t state_ops = 0;
  size_t conflicts = 0;
  size_t advice_spool_bytes = 0;
  // Annotation-lint findings: unannotated variables with R-concurrent
  // accesses, and how many such accesses were observed.
  std::map<std::string, size_t> lint_violations;
  // Every untracked-variable access, in observation order (empty when
  // record_untracked_accesses is off or the mode is uninstrumented).
  UntrackedAccessLog untracked_accesses;
  // Per-request wall-clock latencies in seconds, completion order (empty
  // unless ServerConfig::measure_request_latencies). The first
  // warmup_requests entries belong to warmup.
  std::vector<double> request_latencies;
};

class ServerCtx;

// One request the incremental core has finished (drained pending events and
// responded). `response` is only populated when capture_responses is on —
// the network edge needs the payload to write back to the client; the
// in-process driver reads responses from the trace instead.
struct CompletedRequest {
  RequestId rid = 0;
  Value response;
};

class Server {
 public:
  Server(const Program& program, const ServerConfig& config);
  ~Server();

  // Serves `request_inputs` (request ids are assigned 1..N in order) and
  // returns the trace plus collected advice. Deterministic for a fixed
  // (program, config, inputs) triple across all instrumentation modes, so
  // that mode comparisons see identical schedules.
  ServerRunResult Run(const std::vector<Value>& request_inputs);

  // --- Incremental per-request core -------------------------------------
  //
  // The same engine Run drives, exposed one step at a time so a caller that
  // does not hold the whole schedule up front (the network edge, src/net)
  // can interleave admission with I/O. Run(inputs) is exactly
  //   BeginRun(); { admit while capacity; StepOne(); } FinishRun();
  // so both drivers share one dispatch loop and produce identical bytes for
  // identical admission/step interleavings.

  // Resets per-run state and executes the initialization pseudo-handler.
  void BeginRun(size_t expected_requests = 0);

  // Admits one request: assigns the next rid (1, 2, ...), records the trace
  // arrival, and queues the request event. Caller enforces any concurrency
  // window (Run admits while in_flight_count() < config.concurrency).
  RequestId InjectRequest(const Value& input);

  // Dispatches one scheduler-selected event among the in-flight requests.
  // Returns false when no in-flight request has a pending event (idle).
  bool StepOne();

  // Finalizes tags/write-order/advice
  // and returns the run result. Terminates the run started by BeginRun.
  ServerRunResult FinishRun();

  size_t in_flight_count() const { return in_flight_.size(); }
  // True iff StepOne has an event to dispatch.
  bool has_runnable() const;

  // When on, each completed request's response payload is retained for
  // TakeCompleted (the network edge replies from these; the in-process
  // driver leaves this off and pays nothing).
  void set_capture_responses(bool on) { capture_responses_ = on; }
  // Requests completed since the last call, in completion order.
  std::vector<CompletedRequest> TakeCompleted();

  const TxKvStore& store() const { return store_; }

 private:
  friend class ServerCtx;

  struct PendingEvent {
    uint64_t event = 0;
    Value payload;
    HandlerId activator_hid = kNoHandler;
    OpNum activator_opnum = 0;
  };

  struct Registration {
    uint64_t event = 0;
    FunctionId function = 0;
  };

  struct RequestState {
    Value input;
    bool responded = false;
    std::deque<PendingEvent> pending;
    // Per-request handler registrations, in registration order.
    std::vector<Registration> registered;
    // Instrumented-only state. Labels are interned in the server's
    // LabelStore; the handler log appends into the server's arena.
    FlatMap<HandlerId, LabelStore::Ref> labels;
    FlatMap<HandlerId, uint32_t> child_counts;
    ArenaLog<HandlerLogEntry> handler_log;
    uint64_t tree_tag_acc = 0;  // Karousos tag: unordered combine over handlers.
    Digest seq_tag;             // Orochi tag: order-sensitive over handlers.
    size_t handler_count = 0;
    // Arrival timestamp (measure_request_latencies only).
    std::chrono::steady_clock::time_point arrival;
    // Response payload (capture_responses_ only).
    Value response;
  };

  struct TrackedVar {
    bool declared = false;
    // True while no write has happened since OnInitialize: the declaration
    // itself is not a loggable write, so log entries may not reference it.
    bool last_is_declaration = true;
    // Whether last_write already has a var-log entry — the O(1) stand-in for
    // the log.count() membership test the builder's lanes can't answer.
    bool last_write_logged = false;
    Value value;
    OpRef last_write;  // Most recent write or the OnInitialize coordinates.
    LabelStore::Ref last_write_label = LabelStore::kEmpty;
  };

  // Runs the handlers registered for one event of one request.
  void DispatchEvent(RequestId rid, const PendingEvent& event, ServerRunResult* result);

  // Runs one handler activation to completion.
  void RunActivation(RequestId rid, FunctionId function, HandlerId hid, const Value& payload,
                     HandlerId activator, ServerRunResult* result);

  bool instrumented() const { return config_.mode != CollectMode::kOff; }

  // Memoized DigestOf for event/function names (EventId shares the mapping).
  uint64_t NameDigest(std::string_view name);

  // Uninstrumented runs still need monotone PUT indexes per transaction for
  // the store's last-writer bookkeeping (the values are discarded).
  uint32_t NextUninstrumentedPutIndex(const TxnKey& txn) { return ++put_counters_[txn]; }

  const Program& program_;
  ServerConfig config_;
  TxKvStore store_;
  std::unique_ptr<Rng> sched_rng_;
  std::unique_ptr<Rng> value_rng_;

  // Global handlers registered by the initialization function (§3).
  std::vector<Registration> global_handlers_;
  // Request state, indexed by rid (slot 0 unused; rids run 1..N).
  std::vector<RequestState> requests_;
  struct UntrackedVar {
    Value value;
    // Lint-mode shadow tracking.
    std::string name;
    bool written = false;
    OpRef last_write;
    LabelStore::Ref last_write_label = LabelStore::kEmpty;
  };

  FlatMap<VarId, TrackedVar> tracked_vars_;
  FlatMap<VarId, UntrackedVar> untracked_vars_;
  FlatMap<TxnKey, uint32_t> put_counters_;

  Trace trace_;
  // Streaming advice accumulator; Finalize() at the end of Run materializes
  // the ordered Advice (identical bytes to the map-built path).
  AdviceBuilder builder_;
  // Interning / memoization shared by every activation of the run.
  LabelStore label_store_;
  Arena arena_;
  VarIdCache varid_cache_;
  NameDigestCache name_cache_;  // Event and function name digests.
  // Scratch for DispatchEvent's matched-handler list (never nested).
  std::vector<FunctionId> matched_scratch_;
  // Incremental-run state (valid between BeginRun and FinishRun).
  std::unique_ptr<ServerRunResult> run_;
  std::vector<RequestId> in_flight_;
  size_t responses_delivered_ = 0;
  bool warm_ = true;
  std::chrono::steady_clock::time_point serve_start_;
  bool capture_responses_ = false;
  std::vector<CompletedRequest> completed_;
  // Advice spool: logged entries are serialized as they are produced, the
  // way a deployed server streams advice out (§2.1 requires keeping the
  // verifier fed without buffering the whole run). Its cost is part of the
  // instrumented server's overhead; its length approximates bytes shipped.
  ByteWriter advice_spool_;
  ServerRunResult* current_result_ = nullptr;
  // Sink for the simulated activation-context bookkeeping (keeps the
  // instrumentation tax from being optimized away).
  volatile uint64_t instrumentation_sink_ = 0;
};

}  // namespace karousos

#endif  // SRC_SERVER_SERVER_H_
