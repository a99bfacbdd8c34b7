// Shard-axis audit: verify one shard file in isolation with the full
// Verifier machinery, emit a compact verdict artifact, and deterministically
// merge K artifacts into the run's verdict (ROADMAP item 2 — process-parallel
// scale-out orthogonal to epoch streaming).
//
// Division of labor:
//   * Each shard audit is a complete streaming audit (AuditSession's phases)
//     over the replicated trace and the shard's advice slice, scoped to the
//     shard's requests (Verifier::SetShardScope). Every trace-level check and
//     every check over shard-owned advice fires exactly as the unsharded
//     audit would, so a fault inside one shard's content rejects there with
//     the unsharded rule.
//   * The genuinely global checks — cross-shard continuity-import
//     confirmation, write-order stitching, write-chain stitching, and the
//     isolation check over the alleged global transaction order — cannot be
//     decided inside any one shard. Each shard audit exports the state those
//     checks need (references and the ledger's value-free shapes, not the
//     advice) into its ShardArtifact, and MergeShardArtifacts re-runs them
//     over the union, exactly like AuditSession::Finish runs the cross-epoch
//     checks over the pre-screen's ledger (src/analysis/carry_lint.h).
//
// Verdict contract (mirroring the epoch axis): for an honest run, the merged
// (accepted, reason, rule, diagnostics) quadruple is bit-identical to the
// unsharded audit (AuditSession) at every shard count; tampering with a shard's
// content rejects in that shard's audit under the unsharded rule; tampering
// that only the cross-shard view can see (a merge-only adversary) rejects at
// merge under KAR-SEG-012..015 or the corresponding dynamic reason.
#ifndef SRC_VERIFIER_SHARD_AUDIT_H_
#define SRC_VERIFIER_SHARD_AUDIT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/common/kcodec.h"
#include "src/server/shard.h"
#include "src/verifier/verifier.h"

namespace karousos {

// One shard audit's signed verdict plus the exports the merge consumes. The
// artifact is tiny relative to the shard's advice: references, digests and
// per-key summaries, never logs or values beyond what cross-shard
// confirmation requires.
struct ShardArtifact {
  // Identity and config echo (KAR-SEG-015 cross-checks these for equality).
  uint32_t shard = 0;
  uint32_t count = 1;
  ShardMode mode = ShardMode::kHash;
  uint64_t epoch_requests = 0;
  uint64_t epochs = 0;
  IsolationLevel isolation = IsolationLevel::kSerializable;

  // The boundary's rid coverage, and digests of the replicated trace windows
  // and of their per-rid arrival/response counts, computed from the shard's
  // slices (equal across shards cut from one run).
  std::vector<RequestId> rids;
  uint64_t trace_digest = 0;
  uint64_t balance_digest = 0;
  // Digest/count over the FULL trace rid universe (replicated, so every
  // honest shard computes the same value): the merge's partition target.
  uint64_t trace_rid_digest = 0;
  uint64_t trace_rid_count = 0;

  // The shard's verdict. decided_epoch is the epoch being fed when a
  // mid-stream rejection surfaced, or `epochs` for finish-time rejections —
  // the merge reports the earliest-deciding shard, matching the unsharded
  // audit's first-fault order.
  bool accepted = false;
  std::string reason;
  std::string rule;
  uint64_t decided_epoch = 0;
  std::vector<LintDiagnostic> diagnostics;

  // --- Exports for the merge's global checks (populated on accept) ---------

  // Per-request re-execution tags (KAR-SEG-012's group-atomicity check).
  std::map<RequestId, uint64_t> tags;

  // The shard's write-order entries with their alleged global positions
  // (KAR-SEG-013 re-stitches the total order).
  std::vector<TxOpRef> write_order;
  std::vector<uint64_t> write_order_positions;
  uint64_t write_order_total = 0;

  // The shard's history analysis (src/adya/checker.h), merged for the global
  // isolation check: committed and last_modification partition by owning rid;
  // read_map reader lists interleave by sorted reader reference. Only its
  // three sections travel; ok and reason are the verdict's.
  HistoryAnalysis history;

  // The shard's ledger shapes (src/analysis/carry_lint.h) for the merged
  // isolation check. The checker never dereferences PUT values, so the
  // value-free shapes suffice.
  std::map<TxOpRef, PutShape> put_shapes;
  std::map<TxnKey, uint32_t> txn_sizes;

  // Cross-shard continuity allegations this shard consumed but could not
  // confirm locally (targets owned by other shards), and the descriptions of
  // this shard's real content at its export obligations. The merge matches
  // every pending import against the owner's export — the shard-axis
  // counterpart of the pre-screen's confirmation (KAR-SEG-014 on
  // contradiction).
  std::map<TxOpRef, ContinuityImports::TxOpImport> pending_tx_imports;
  std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport> pending_var_imports;
  std::map<TxOpRef, ContinuityImports::TxOpImport> tx_exports;
  std::map<std::pair<VarId, OpRef>, ContinuityImports::VarImport> var_exports;

  // Per-variable write-chain fragments reconstructed by this shard's
  // re-execution: the claimed initializing write and every prec -> cur
  // overwrite link. The merge unions them and re-runs the chain checks
  // (initializer uniqueness, overwrite conflicts, acyclicity) that no single
  // shard can see across the cut.
  struct VarLinks {
    bool has_initializer = false;
    OpRef initializer;
    std::vector<std::pair<OpRef, OpRef>> links;  // (prec, cur), sorted by prec.
  };
  std::map<VarId, VarLinks> var_links;

  void Serialize(ByteWriter* out) const;
  static std::optional<ShardArtifact> Deserialize(ByteReader* in);
};

// Runs the full streaming audit over one (loaded and validated) shard file,
// scoped to the shard's requests, and packages verdict + exports.
// config.threads composes exactly as on the epoch axis.
ShardArtifact RunShardAudit(const Program& program, const ShardFile& file,
                            const VerifierConfig& config);

// Deterministically merges K shard artifacts into the run's verdict:
// artifact-set consistency (KAR-SEG-015), rid partition + tag atomicity
// (KAR-SEG-012), write-order stitch (KAR-SEG-013), cross-shard import
// confirmation (KAR-SEG-014), write-chain stitch, and the isolation check
// over the stitched order — in that order, with any shard's own rejection
// (earliest deciding epoch, then lowest shard index) taking precedence.
AuditResult MergeShardArtifacts(const std::vector<ShardArtifact>& artifacts);

// Artifact container: a single kShardArtifact frame (epoch field = shard
// index), CRC-guarded like every KSEG frame.
std::vector<uint8_t> EncodeShardArtifact(const ShardArtifact& artifact);

struct ShardArtifactLoadResult {
  bool ok = false;
  std::string reason;
  std::string rule;
  ShardArtifact artifact;
};

ShardArtifactLoadResult LoadShardArtifactFile(const std::string& path);
ShardArtifactLoadResult LoadShardArtifactBytes(std::span<const uint8_t> bytes);

}  // namespace karousos

#endif  // SRC_VERIFIER_SHARD_AUDIT_H_
