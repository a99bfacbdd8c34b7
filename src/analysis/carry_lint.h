// Cross-epoch static model checking over KSEG advice streams, and the one
// ledger of the run's cross-epoch shape.
//
// The per-epoch linter (src/analysis/lint.h) validates one slice at a time;
// everything that spans segment boundaries — claim uniqueness across epochs,
// opcount stability, write-order totality over the concatenated chunks,
// continuity-import closure, prec-chain acyclicity over the whole run — needs
// state carried from every completed epoch. CarryLint is that state. It also
// owns the shape every later epoch and the finish-time checks resolve
// through (transaction sizes, PUT shapes, var-entry kinds, the concatenated
// write order) and the one pending-import ledger, which it confirms as each
// target epoch arrives. The audit session keeps only the values re-execution
// reads beside it (src/verifier/verifier.h). The same pass is the session's
// fast-reject pre-screen, before Preprocess/ReExec, and `karousos check`,
// which costs no re-execution; both emit identical diagnostics. Findings
// accumulate in stream order: the first error is the verdict and stops
// re-execution, and when it came in the stream's last epoch, Finish still
// runs and adds its findings.
//
// Rule catalogue (stable IDs; KAR-SEG-001..003 and 010 are container-layer and
// fire in the stream loader, 004..009 fire here):
//   KAR-SEG-001  segment container unreadable (magic/version, CRC, truncation)
//   KAR-SEG-002  frame schema violation (unexpected kind, undecodable payload)
//   KAR-SEG-003  epoch sequencing violation (duplicate, out of order, gap)
//   KAR-SEG-004  operation coordinates claimed by log entries in two epochs
//   KAR-SEG-005  opcounts entry for one (rid, hid) declared in two epochs
//   KAR-SEG-006  write-order entry recurs across epoch chunks
//   KAR-SEG-007  advice content outside its owning epoch's slice
//   KAR-SEG-008  continuity import broken (non-forward, contradicts the slice
//                it mirrors once that epoch arrives, or dangles past the end)
//   KAR-SEG-009  var-log prec chain cyclic across epochs
//   KAR-SEG-010  trace and advice streams disagree on the epoch set
//
// Every KAR-SEG advice rule fires only on genuinely cross-epoch phenomena: a
// single-epoch stream (epoch_requests == 0) can never trip 004..009, which is
// what keeps the verdict bit-identical across epoch sizes on honest
// slicings. The session's pre-screen is always on, and it is not a
// redundant fast path: KAR-SEG-007 and KAR-SEG-008 findings are enforced only
// here; a stream that breaks only them passes every dynamic check.
#ifndef SRC_ANALYSIS_CARRY_LINT_H_
#define SRC_ANALYSIS_CARRY_LINT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/adya/checker.h"
#include "src/analysis/diagnostic.h"
#include "src/analysis/lint.h"
#include "src/common/flat_map.h"
#include "src/common/serde.h"
#include "src/server/rollover.h"

namespace karousos {

inline constexpr const char* kKarSeg001 = "KAR-SEG-001";
inline constexpr const char* kKarSeg002 = "KAR-SEG-002";
inline constexpr const char* kKarSeg003 = "KAR-SEG-003";
inline constexpr const char* kKarSeg004 = "KAR-SEG-004";
inline constexpr const char* kKarSeg005 = "KAR-SEG-005";
inline constexpr const char* kKarSeg006 = "KAR-SEG-006";
inline constexpr const char* kKarSeg007 = "KAR-SEG-007";
inline constexpr const char* kKarSeg008 = "KAR-SEG-008";
inline constexpr const char* kKarSeg009 = "KAR-SEG-009";
inline constexpr const char* kKarSeg010 = "KAR-SEG-010";
// Shard-axis rules (PR 10). 011 fires in the shard-file loader, 012..015 at
// audit-merge; like 004..009 they can only fire on genuinely cross-shard
// phenomena, so a single-shard run (K == 1) reproduces the unsharded verdict.
inline constexpr const char* kKarSeg011 = "KAR-SEG-011";  // boundary segment malformed
inline constexpr const char* kKarSeg012 = "KAR-SEG-012";  // rid coverage broken (overlap, gap, split group)
inline constexpr const char* kKarSeg013 = "KAR-SEG-013";  // write-order stitch broken / totals mismatch
inline constexpr const char* kKarSeg014 = "KAR-SEG-014";  // cross-shard state contradiction
inline constexpr const char* kKarSeg015 = "KAR-SEG-015";  // artifact set inconsistent

// A carried PUT's shape: everything a resolution consumer reads of it but
// its payload (the GET feed's, which the audit session keeps).
struct PutShape {
  std::string key;
  HandlerId hid = 0;
  OpNum opnum = 0;
};

// Incremental cross-epoch checker and ledger. RegisterImports + CheckEpoch as
// each epoch arrives (after the slice-local KAR-ADV lint, so per-epoch
// diagnostics keep catalogue order), EndEpoch to fold the slice in, Finish
// once the stream ends.
class CarryLint {
 public:
  struct PendingTxImport {
    ContinuityImports::TxOpImport imp;
    uint64_t registered_epoch = 0;
  };
  struct PendingVarImport {
    ContinuityImports::VarImport imp;
    uint64_t registered_epoch = 0;
  };

  CarryLint() = default;

  void Begin(uint64_t epoch_requests);

  // Registers this epoch's forward allegations. Runs before the slice lint so
  // that the lint hooks can resolve through them.
  void RegisterImports(const EpochSegment& segment);

  // Shard-axis scope (src/server/shard.h): `owned` is the set of trace rids
  // this shard's audit owns, kept alive by the caller. With a filter set,
  // continuity imports whose target is an in-trace rid owned by another shard
  // are exempt from the forward-direction rule (cross-shard imports may point
  // backward) and from local arrival-confirmation (the target's content never
  // arrives here; the merge confirms them against the owning shard's
  // artifact). nullptr — the default — is the unsharded behavior.
  void SetShardFilter(const std::set<RequestId>* owned) { shard_filter_ = owned; }

  // The per-epoch KAR-SEG pass (rules 004..008). `trace_rids` is the stream's
  // accumulated request-id universe (rids outside it are KAR-ADV-001's to
  // report, not ours). Appends findings to `out`.
  void CheckEpoch(const EpochSegment& segment, const std::set<RequestId>& trace_rids,
                  std::vector<LintDiagnostic>* out);

  // Folds the slice into the ledger and the claim/opcount/prec state.
  void EndEpoch(const EpochSegment& segment);

  // Finish-time rules: the accumulated write-order lint (KAR-ADV-009/010)
  // first, then rule 007's early-content verdicts, 008's residual import
  // closure, and 009's cross-epoch prec acyclicity. The KAR-SEG rules are
  // skipped if the write-order lint errors.
  void Finish(std::vector<LintDiagnostic>* out);

  // What lives at a coordinate outside the live slice: the ledger first, then
  // the pending imports. A ledger hit carries no payload (put_value and value
  // stay null); callers that hold payloads fill them in. A confirmed import
  // is erased, which changes no lookup: it matched the ledger's content.
  ResolvedTxOp ResolveTxOp(const TxOpRef& ref) const;
  ResolvedVarEntry ResolveVarEntry(VarId vid, const OpRef& op) const;

  uint64_t epochs_folded() const { return epochs_; }
  const FlatMap<TxnKey, uint32_t>& txn_sizes() const { return txn_sizes_; }
  const FlatMap<TxOpRef, PutShape>& put_shapes() const { return put_shapes_; }
  const WriteOrder& write_order() const { return order_; }
  // Imports not confirmed yet: their target epoch has not arrived, or (under
  // a shard filter) another shard owns it.
  const std::map<TxOpRef, PendingTxImport>& pending_tx_imports() const {
    return pending_tx_imports_;
  }
  const std::map<std::pair<VarId, OpRef>, PendingVarImport>& pending_var_imports() const {
    return pending_var_imports_;
  }

  // Checkpoint round-trip (canonical sorted encoding, the session checkpoint
  // discipline). Malformed or truncated input fails `in`.
  void Serialize(ByteWriter* out) const;
  void Deserialize(StateReader* in);

 private:
  struct PrecEdge {
    OpRef prec;
    uint64_t epoch = 0;  // Epoch of the entry holding the prec.
  };
  struct EarlyContent {
    uint64_t seen_epoch = 0;   // Slice the content appeared in.
    uint64_t owner_epoch = 0;  // Epoch its rid belongs to (> seen_epoch).
    std::string location;
  };

  void Emit(const char* rule, std::string location, std::string message,
            std::vector<LintDiagnostic>* out) const;
  void CheckDuplicateClaims(const EpochSegment& segment, std::vector<LintDiagnostic>* out);
  void CheckOpcountEpochs(const EpochSegment& segment, std::vector<LintDiagnostic>* out);
  void CheckWriteOrderRecurrence(const EpochSegment& segment, std::vector<LintDiagnostic>* out);
  void CheckContentOwnership(const EpochSegment& segment, std::vector<LintDiagnostic>* out);
  void CheckImports(const EpochSegment& segment, const std::set<RequestId>& trace_rids,
                    std::vector<LintDiagnostic>* out);
  // True when a shard filter is set and `rid` is an in-trace request owned by
  // another shard (imports targeting it are confirmed at merge, not here).
  bool ForeignTarget(RequestId rid, const std::set<RequestId>& trace_rids) const;
  // The first epoch before the current one whose log entry claimed `op`.
  std::optional<uint64_t> FirstClaim(const OpRef& op);
  // Every claim once, with its first epoch, in ascending op order.
  std::vector<std::pair<OpRef, uint64_t>> ClaimsByOp() const;
  // Positions in prec_edges_ of the first edge of each key, in ascending key
  // order: the checkpoint's encoding and KAR-SEG-009's walk both read it.
  std::vector<uint32_t> PrecIndex() const;
  void FinishEarlyContent(std::vector<LintDiagnostic>* out);
  void FinishImports(std::vector<LintDiagnostic>* out);
  void FinishPrecChains(std::vector<LintDiagnostic>* out);

  uint64_t epoch_requests_ = 0;
  uint64_t epochs_ = 0;  // Epochs folded so far == index of the current epoch.
  // Not owned, not checkpointed: the shard audit re-installs it per process.
  const std::set<RequestId>* shard_filter_ = nullptr;

  // Cross-epoch bookkeeping. Values are the first epoch that owned the key;
  // probes against the current epoch detect recurrence.
  //
  // Claimed operations (KAR-SEG-004). A claim in its request's own epoch
  // goes into that epoch's list, unhashed: it can recur only as a claim in
  // another epoch, so the list is sorted and searched only when one comes.
  // Every other claim is a misplaced one, kept with the first epoch that
  // made it.
  struct OwnClaims {
    std::vector<OpRef> ops;
    bool sorted = false;
  };
  FlatMap<uint64_t, OwnClaims> own_claims_;  // By epoch.
  FlatMap<OpRef, uint64_t> misplaced_claims_;
  FlatMap<std::pair<RequestId, HandlerId>, uint64_t> opcount_epochs_;
  FlatMap<TxOpRef, uint64_t> write_order_epochs_;
  // Var-log prec edges in fold order (the first edge of a key wins). Read
  // only through PrecIndex, at checkpoint saves and by FinishPrecChains.
  std::vector<std::pair<std::pair<VarId, OpRef>, PrecEdge>> prec_edges_;
  std::vector<EarlyContent> early_content_;
  // node-keyed maps stay std::map: resolvers hand out pointers into them and
  // the checkpoint wants their sorted order anyway.
  std::map<TxOpRef, PendingTxImport> pending_tx_imports_;
  std::map<std::pair<VarId, OpRef>, PendingVarImport> pending_var_imports_;

  // The resolution ledger: the last epoch to log a coordinate wins.
  FlatMap<TxnKey, uint32_t> txn_sizes_;
  FlatMap<TxOpRef, PutShape> put_shapes_;
  // Var-entry kinds (true == write entry). Ordered: a slice's entries arrive
  // in key order, so most inserts land at the end hint, and on motd@20000 and
  // stacks@1500 that folds faster than hashing each entry into a FlatMap.
  std::map<std::pair<VarId, OpRef>, bool> var_kinds_;
  WriteOrder order_;  // The alleged global order, chunks concatenated.
};

}  // namespace karousos

#endif  // SRC_ANALYSIS_CARRY_LINT_H_
