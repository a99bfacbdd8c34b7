// The Karousos verifier: Preprocess -> ReExec -> Postprocess (Figures 14-21),
// run one epoch at a time. The verifier holds the golden-master Program,
// receives the trusted trace and the untrusted advice as a stream of epoch
// segments (driven by AuditSession, src/verifier/session.h), and accepts iff
// the trace could have been produced by some schedule of the program on those
// requests. A run that is not stored in epochs is audited as epochs of
// kDefaultEpochRequests (src/server/rollover.h).
//
// The same verifier audits both Karousos and Orochi-JS advice: grouping is
// driven by the (untrusted) tags in the advice, and every difference between
// the two systems lives in how the server computed tags and how much it
// logged. Wrong tags can only cause rejection (divergence checks), never
// wrong acceptance.
#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/adya/checker.h"
#include "src/analysis/access_log.h"
#include "src/analysis/carry_lint.h"
#include "src/analysis/diagnostic.h"
#include "src/common/flat_map.h"
#include "src/common/graph.h"
#include "src/common/ids.h"
#include "src/common/memo.h"
#include "src/common/pool.h"
#include "src/common/prof.h"
#include "src/kem/program.h"
#include "src/multivalue/multivalue.h"
#include "src/server/advice.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"

namespace karousos {

struct AuditStats {
  size_t groups = 0;
  size_t group_lane_total = 0;       // Sum of group widths == #requests.
  size_t handler_executions = 0;     // Handler-body executions (deduplicated).
  size_t handler_lanes = 0;          // Sum over executions of group width.
  size_t ops_executed = 0;           // Deduplicated operation executions.
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  size_t graph_hashed_nodes = 0;     // Of graph_nodes, those outside a chain block.
  size_t var_dict_entries = 0;
  size_t isolation_dg_nodes = 0;
  size_t isolation_dg_edges = 0;

  // Accumulates another stats block into this one, field by field. The merge
  // is commutative and associative, so per-group deltas can be combined in
  // any order (the parallel audit engine merges them in group-index order
  // anyway, purely for the determinism of everything else).
  void Merge(const AuditStats& other);
};

// Verifier-side knobs, kept separate from ServerConfig: the verifier runs at
// the principal, on different hardware than the server.
struct VerifierConfig {
  IsolationLevel isolation = IsolationLevel::kSerializable;
  // Audit-group parallelism for ReExec: 0 = one thread per hardware thread,
  // 1 = the serial path (the determinism oracle), N = N worker threads.
  unsigned threads = 1;
};

struct AuditResult {
  bool accepted = false;
  std::string reason;  // Empty on accept.
  // Stable rule ID when the rejection came from the advice-lint preprocess
  // stage (e.g. "KAR-ADV-003"); empty for re-execution rejections.
  std::string rule;
  // Analysis-layer findings that accompanied the audit: lint diagnostics
  // (including the one that caused a rejection) and, when an untracked-access
  // log was supplied, happens-before race findings (warnings).
  std::vector<LintDiagnostic> diagnostics;
  AuditStats stats;
  // Phase timings and allocation counters (src/common/prof.h). Wall-clock
  // values vary run to run; everything else in the result is deterministic.
  AuditProfile profile;
};

// Thrown by internal checks on server misbehavior; caught by StreamEpoch and
// StreamFinish.
struct RejectError {
  explicit RejectError(std::string r) : reason(std::move(r)) {}
  RejectError(std::string rule_id, std::string r)
      : reason(std::move(r)), rule(std::move(rule_id)) {}
  std::string reason;
  std::string rule;  // Analysis rule ID; empty for re-execution rejections.
};

class ReplayCtx;
class AuditSession;
class ShardAudit;

class Verifier {
 public:
  Verifier(const Program& program, IsolationLevel isolation)
      : Verifier(program, VerifierConfig{isolation, 1}) {}

  Verifier(const Program& program, const VerifierConfig& config)
      : program_(program), config_(config) {}

  // Optional: supply the server-side untracked-access log so that the
  // audit can run the §5 happens-before race detector and attach its
  // findings to the audit result as warnings. (The accesses are not part
  // of the advice — untracked variables are unlogged by design — so this is
  // only available when the auditor also operated the collector pipeline.)
  void set_untracked_accesses(const UntrackedAccessLog* log) { untracked_accesses_ = log; }

 private:
  friend class ReplayCtx;
  friend class AuditSession;
  friend class ShardAudit;

  // Location of an operation in the advice logs (Figure 14's OpMap).
  struct OpLocation {
    enum class Kind : uint8_t { kHandlerLog, kTxLog };
    Kind kind = Kind::kHandlerLog;
    RequestId rid = 0;  // Handler-log owner.
    TxnKey txn{};       // Tx-log owner.
    uint32_t index = 0; // 1-based position within the log.
  };

  struct Activation {
    HandlerId hid = 0;
    FunctionId function = 0;
  };

  // Verifier-side tracked-variable state (Figures 20-21). All three tables
  // are lookup-only on the hot path (FindNearestRPrecedingWrite, LinkWrite),
  // so they live in flat hash containers; the one consumer that needs a
  // canonical order — AddInternalStateEdges — walks explicit chains / sorted
  // keys, never container iteration order.
  struct VerifierVar {
    // var_dict: per (rid, hid), the writes that handler performed, in opnum
    // order (value snapshots for FindNearestRPrecedingWrite).
    FlatMap<std::pair<RequestId, HandlerId>, std::vector<std::pair<OpNum, Value>>> var_dict;
    FlatMap<OpRef, std::vector<OpRef>> read_observers;
    FlatMap<OpRef, OpRef> write_observer;
    OpRef initializer;  // First write in the reconstructed history (nil until set).
    bool declared = false;
    // Declared by a non-init request with VarScope::kRequest: the VarId is
    // salted with that request's rid, so only its lanes can ever name it.
    bool request_scoped = false;
  };

  // All mutable state one re-execution group touches, captured as a delta
  // over the post-initialization base state. Groups execute against base +
  // their own delta only — never against each other — which is what makes
  // them schedulable on any thread in any order. The deltas are then merged
  // into the verifier in group-index order, reproducing one canonical serial
  // execution bit for bit (result, reason, diagnostics, stats) regardless of
  // thread count.
  struct GroupState {
    // A shared-variable mutation that can collide with another group's:
    // re-checked against the merged state, in recorded order, at merge time.
    struct Claim {
      enum class Kind : uint8_t {
        kDeclare,      // var declared (rejects "variable declared twice").
        kInitializer,  // cur claims the initializing write.
        kChainLink,    // cur overwrites prec in the write chain.
      };
      Kind kind = Kind::kChainLink;
      VarId vid = 0;
      OpRef prec;  // kChainLink only.
      OpRef cur;   // kInitializer / kChainLink.
      bool request_scoped = false;  // kDeclare only.
    };

    // Local VerifierVar overlays: var_dict entries and read-observer pushes
    // produced by this group (merge appends them; keys are disjoint across
    // groups), plus write_observer/initializer/declared shadows used only
    // for this group's own visibility during execution (the authoritative
    // cross-group application happens through `claims`).
    FlatMap<VarId, VerifierVar> vars;
    FlatMap<VarId, Value> untracked;  // Overlay over the post-init snapshot.
    FlatMap<RequestId, FlatMap<HandlerId, HandlerId>> parents;
    FlatMap<TxnKey, uint32_t> tx_positions;
    FlatSet<std::pair<RequestId, HandlerId>> executed;
    FlatSet<RequestId> responded;
    FlatSet<std::pair<VarId, OpRef>> var_log_touched;
    std::vector<Claim> claims;
    AuditStats stats;  // Only the ReExec-phase counters are populated.
    size_t arena_bytes = 0;  // Scratch bytes bump-allocated by this group.

    // Outcome of the isolated execution. A fault is a non-Reject exception
    // surfacing from re-executed application code.
    bool rejected = false;
    bool fault = false;
    std::string reason;
    std::string rule;
  };

  // --- Preprocess (Figure 14), per epoch -----------------------------------
  // Builds the hashed advice indices below and pre-sizes the execution graph
  // from the advice cardinalities. Must run before anything consults the
  // idx_ members (the graph passes and all of ReExec).
  void BuildAdviceIndices();
  // The epoch's static findings: slice-local advice lint, then (on a clean
  // slice) the cross-epoch pre-screen. Every finding is kept; the first
  // error is thrown as the rejection, with its rule ID.
  void CheckEpochStatically(const EpochSegment& segment);
  void RunInitialization();
  void AddProgramEdges();
  void AddBoundaryEdges();
  void AddHandlerRelatedEdges();
  void AddExternalStateEdges();
  void CheckOpIsValid(RequestId rid, HandlerId hid, OpNum opnum);

  // --- ReExec (Figures 18-19) --------------------------------------------
  void ReExec();
  // Runs one group against the post-init base state, capturing every
  // mutation (and the outcome) in the returned delta. Never throws.
  GroupState ExecuteGroup(const std::vector<RequestId>& rids);
  void ReExecGroup(const std::vector<RequestId>& rids, GroupState* gs);
  // Applies a group delta to the verifier in group-index order; replays the
  // recorded claims against the merged state and throws RejectError on a
  // cross-group conflict or on the group's own captured rejection.
  void MergeGroup(GroupState& gs);

  // --- Postprocess (Figure 21) --------------------------------------------
  void Postprocess();
  void AddInternalStateEdges();

  // --- Epoch streaming (driven by AuditSession) ----------------------------
  //
  // The audit feeds one EpochSegment at a time. Each epoch runs the
  // slice-local preprocess passes and re-executes the epoch's groups, then
  // StreamEndEpoch folds the slice into the pre-screen's ledger and the
  // carried values and drops the per-epoch structures. Globally-scoped checks
  // (write-order lint, isolation, internal-state edges, the graph cycle
  // check) run once at StreamFinish, which assembles the verdict.

  // Resolve a transaction-log / var-log coordinate: current slice first, then
  // the ledger of completed epochs (with the carried payload), then forward
  // continuity imports.
  ResolvedTxOp ResolveTxOp(const TxOpRef& ref) const;
  ResolvedVarEntry ResolveVarEntry(VarId vid, const OpRef& op) const;

  // Shard-axis scope (src/verifier/shard_audit.h): restricts this audit to
  // the requests a shard owns. Must be set before StreamBegin. The trace-level
  // checks (balance, epoch completeness, time precedence) still cover the full
  // replicated trace; only advice-facing work — re-execution, boundary edges,
  // response matching — narrows to the owned rids, and continuity imports
  // targeting foreign-owned requests are exported for the merge to confirm
  // instead of being confirmed (impossibly) against the local ledger.
  void SetShardScope(const std::set<RequestId>* owned) { shard_rids_ = owned; }

  void StreamBegin(uint64_t epoch_requests);
  void StreamEpoch(const EpochSegment& segment);
  // Assembles the verdict. `fed_all` says the source ended and every epoch it
  // held was fed. After a mid-stream rejection the verdict stays that
  // rejection; with `fed_all` the finish-time static rules still run, so the
  // result carries every static finding. Without it they are skipped: they
  // would judge epochs that were never fed.
  AuditResult StreamFinish(bool fed_all);
  // The finish-time static rules: the pre-screen's Finish, which lints the
  // global write order (KAR-ADV-009/010) and then runs its finish rules
  // (KAR-SEG-007..009). Throws the first error.
  void FinishStatically();
  void StreamIngestWindow(const std::vector<TraceEvent>& window);
  void StreamTimePrecedence(const std::vector<TraceEvent>& window);
  void StreamEndEpoch(const EpochSegment& segment);
  // Drops the var_dict payloads of finished epochs' requests: dead weight,
  // since later epochs' dictionary climbs visit only their own requests and
  // init. Runs as each epoch starts; the checkpoint counts those payloads as
  // pruned already.
  void PruneVarDicts();

  // The canonical handler-matching order shared with the server: global
  // handlers in registration order, then per-request registrations in
  // registration order.
  static std::vector<FunctionId> MatchHandlers(
      const std::vector<std::pair<uint64_t, FunctionId>>& globals,
      const std::vector<std::pair<uint64_t, FunctionId>>& registered, uint64_t event);

  [[noreturn]] static void Reject(std::string reason) { throw RejectError(std::move(reason)); }

  const Program& program_;
  VerifierConfig config_;
  // ReExec's workers, started by the first epoch that has groups to share
  // among more than one thread and kept for the verifier's life.
  std::unique_ptr<WorkStealingPool> pool_;

  const Advice* advice_ = nullptr;  // The slice of the epoch being fed.
  const UntrackedAccessLog* untracked_accesses_ = nullptr;
  std::vector<LintDiagnostic> diagnostics_;

  DirectedGraph graph_;
  FlatMap<OpRef, OpLocation> op_map_;
  FlatMap<OpRef, std::vector<Activation>> activated_handlers_;
  // Global handlers registered by the verifier's own initialization run.
  std::vector<std::pair<uint64_t, FunctionId>> global_handlers_;
  HistoryAnalysis history_;

  // Hashed indices over the advice, built once by BuildAdviceIndices. The
  // advice structures themselves stay std::map (their iteration order is the
  // wire format's byte order); the pointers here alias the advice, which
  // outlives the audit.
  FlatMap<std::pair<RequestId, HandlerId>, OpNum> opcount_idx_;
  FlatMap<OpRef, const NondetRecord*> nondet_idx_;
  FlatMap<VarId, FlatMap<OpRef, const VarLogEntry*>> var_log_idx_;
  FlatMap<TxnKey, const TransactionLog*> tx_log_idx_;
  FlatMap<RequestId, const std::vector<HandlerLogEntry>*> handler_log_idx_;
  FlatMap<RequestId, std::pair<HandlerId, OpNum>> resp_idx_;

  // Stays std::set: its sorted iteration order feeds error messages and the
  // group-formation order, which must be canonical.
  std::set<RequestId> trace_rids_;
  FlatMap<VarId, VerifierVar> vars_;
  // Parent handler of each executed handler, per request (for the var-dict
  // ancestor climb). Request handlers map to kNoHandler.
  FlatMap<RequestId, FlatMap<HandlerId, HandlerId>> parents_;
  // Position counters per transaction during re-execution.
  FlatMap<TxnKey, uint32_t> tx_positions_;
  // (rid, hid) pairs executed by ReExec (for the final opcounts check).
  FlatSet<std::pair<RequestId, HandlerId>> executed_;
  FlatSet<RequestId> responded_;
  // Request inputs / expected responses, indexed once from the trace.
  std::map<RequestId, Value> request_inputs_;
  std::map<RequestId, Value> responses_;
  // Variable-log entries that re-execution actually produced; at the end of
  // ReExec every entry must have been produced, or the log smuggled values
  // ("the verifier ensures that all operations in the logs are produced
  // during re-execution", §4.4 — applied to variable logs as well).
  FlatSet<std::pair<VarId, OpRef>> var_log_touched_;
  // Unannotated variables: a plain reconstructed copy, no version tracking.
  FlatMap<VarId, Value> untracked_vars_;

  // Audit-scoped memo for the simulated application work (MvExpensiveMemo):
  // the per-lane result is a pure function of (lane digest, units), so groups
  // share results. One per audit run — every audit starts cold.
  DigestMemo work_memo_;

  AuditStats stats_;
  AuditProfile profile_;

  // --- Cross-epoch state ----------------------------------------------------
  // The checkpoint writes every container in sorted key order, so its
  // encoding is canonical.
  bool init_done_ = false;
  uint64_t epoch_requests_ = 0;
  uint64_t epochs_fed_ = 0;
  // A rejection raised mid-stream; the verdict is still only assembled at
  // StreamFinish (later segments are drained without further work).
  bool decided_ = false;
  std::string decided_reason_;
  std::string decided_rule_;
  uint64_t decided_epoch_ = 0;  // Epoch being fed when the rejection surfaced.
  // Shard scope (not owned; outlives the audit). nullptr == unsharded.
  const std::set<RequestId>* shard_rids_ = nullptr;
  // Requests belonging to the epoch currently being fed.
  std::set<RequestId> epoch_rids_;
  // Request lifecycle over the whole stream: 1 arrived, 2 responded.
  std::map<RequestId, uint8_t> balance_;
  // Time-precedence chain state carried across trace windows.
  uint64_t tp_epoch_count_ = 0;
  bool tp_have_epoch_ = false;
  NodeKey tp_current_epoch_{};
  std::vector<RequestId> tp_pending_responses_;
  // The values re-execution reads from completed epochs: every carried PUT's
  // payload (a GET's feed; exactly the ledger's PUTs) and the writes to
  // variables that are not request-scoped. Reads carry no value, since no
  // consumer feeds from one, and a write to a request-scoped variable drops
  // its value once its epoch ends: only that request's lanes can name the
  // variable, and they have all re-executed.
  FlatMap<TxOpRef, Value> put_values_;
  FlatMap<std::pair<VarId, OpRef>, Value> var_values_;
  // The fast-reject pre-screen, always on: cross-epoch static rules
  // (src/analysis/carry_lint.h) run per epoch before re-execution. It is also
  // the ledger of the run's cross-epoch shape (transaction sizes, PUT shapes,
  // var-entry kinds, the write order) and of the pending imports, which it
  // alone confirms. KAR-SEG-007 and KAR-SEG-008 findings are enforced only
  // here.
  CarryLint carry_lint_;
  // var_dict entries dropped by per-epoch pruning, so the final
  // stats.var_dict_entries counts every entry re-execution produced.
  size_t var_dict_entries_pruned_ = 0;
};

}  // namespace karousos

#endif  // SRC_VERIFIER_VERIFIER_H_
