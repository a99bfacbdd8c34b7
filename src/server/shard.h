// Shard-axis slicing: partitions one run's advice across K self-contained
// shard files so K independent processes can audit in parallel (ROADMAP
// item 2; the scale-out counterpart to the epoch slicer in rollover.h).
//
// The two axes compose orthogonally:
//   * epochs  slice *time* — every shard file still carries one frame pair
//     per epoch, so each shard process streams with bounded residency;
//   * shards  slice *requests* — advice content is owned by the shard of its
//     request id, the trace windows are replicated to every shard (the trace
//     is trusted and small relative to advice), and the write order is
//     filtered per shard with each entry's *global* position recorded so the
//     merge can re-stitch the alleged total order exactly.
//
// Partitioning is group-atomic: the unit is the re-execution tag group (all
// requests sharing an advice tag), keyed by the group's *lead* — its minimum
// request id. Handlers only interact across requests through (a) external
// state, whose cross-references travel as continuity imports, and (b) tagged
// event chains, which never span groups; so a shard's audit input is closed
// under everything but imports, and a shard verifies with the full
// Verifier/AuditSession machinery.
//
// Continuity imports generalize from "forward across an epoch boundary" to
// "forward across an epoch boundary OR owned by another shard": a reference
// whose target lives out-of-shard is never confirmable locally, so the shard
// audits against the allegation and the merge confirms allegations across
// shards (a wrong import can only cause rejection, exactly as on the epoch
// axis).
//
// Every shard file opens with a kShardBoundary frame — the cross-shard
// manifest the merge checks: covered rid set + digest, replicated-trace and
// balance digests (equal across shards by construction), write-order global
// positions and alleged total, per-component advice totals, and per-variable
// write-chain heads/tails. Boundary allegations are validated against the
// shard's own content at load time (KAR-SEG-011) and against each other at
// merge time (KAR-SEG-012..015).
#ifndef SRC_SERVER_SHARD_H_
#define SRC_SERVER_SHARD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/rollover.h"

namespace karousos {

enum class ShardMode : uint8_t {
  kHash = 0,   // shard(lead) = SplitMix64(lead) % K — stable request-hash.
  kRange = 1,  // contiguous, equal-count ranges of sorted group leads.
};

const char* ShardModeName(ShardMode mode);
std::optional<ShardMode> ParseShardMode(const std::string& name);

struct ShardSpec {
  uint32_t count = 1;
  ShardMode mode = ShardMode::kHash;
};

// The shard owning every request id that appears in the trace or the advice.
// Tag groups are atomic: each rid maps with its group lead, so causally
// related requests always land together. Rid 0 (the init pseudo-request) is
// shard 0's. Exposed for tests and `karousos inspect`.
std::map<RequestId, uint32_t> AssignShards(const Trace& trace, const Advice& advice,
                                           const ShardSpec& spec);

// The cross-shard boundary manifest (first frame of every shard file).
struct ShardBoundary {
  uint32_t shard = 0;
  uint32_t count = 1;
  ShardMode mode = ShardMode::kHash;
  uint64_t epoch_requests = 0;
  uint64_t epochs = 0;  // Epoch frame pairs that follow the boundary frame.

  // Trace rids owned by this shard, ascending, plus an order-sensitive
  // digest. The merge checks that the K rid sets partition the trace exactly
  // (KAR-SEG-012).
  std::vector<RequestId> rids;
  uint64_t rid_digest = 0;

  // Digests over the replicated trace windows and the per-rid
  // arrival/response summary — identical across shards by construction, so
  // any disagreement at merge means the shards were cut from different runs
  // (KAR-SEG-015).
  uint64_t trace_digest = 0;
  uint64_t balance_digest = 0;

  // Global position (in the alleged total write order) of each write-order
  // entry this shard carries, aligned with the concatenation of its per-epoch
  // chunks; plus the alleged total length. The merge re-stitches: positions
  // across shards must cover 0..total-1 exactly once (KAR-SEG-013).
  std::vector<uint64_t> write_order_positions;
  uint64_t write_order_total = 0;

  // Per-component advice totals for this shard (validated against content at
  // load; summed and cross-checked at merge).
  uint64_t total_tags = 0;
  uint64_t total_handler_entries = 0;
  uint64_t total_var_entries = 0;
  uint64_t total_tx_ops = 0;
  uint64_t total_opcount_sum = 0;

  // Per-variable write-chain endpoints among this shard's var-log write
  // entries: head/tail in access-coordinate order, plus the write count.
  struct Chain {
    VarId vid = 0;
    OpRef head;
    OpRef tail;
    uint64_t writes = 0;
  };
  std::vector<Chain> chains;  // Ascending vid.

  // Export obligations: coordinates *inside this shard* that other shards'
  // continuity imports reference. The shard audit describes its real content
  // at each (into the artifact's export tables) so the merge can confirm
  // every cross-shard allegation against the owning shard — the shard-axis
  // counterpart of the pre-screen's confirmation against the arriving slice
  // (src/analysis/carry_lint.h). Dropping an obligation
  // only removes an export, which the merge reports as a missing confirmation
  // (KAR-SEG-014): tampering here can only cause rejection.
  std::vector<TxOpRef> export_tx_refs;                   // Sorted, unique.
  std::vector<std::pair<VarId, OpRef>> export_var_refs;  // Sorted, unique.

  void Serialize(ByteWriter* out) const;
  static std::optional<ShardBoundary> Deserialize(ByteReader* in);
};

// One shard's complete audit input: its boundary manifest plus per-epoch
// slices (full trace windows, shard-filtered advice, shard-aware imports).
struct ShardFile {
  ShardBoundary boundary;
  EpochSlices slices;
};

// Partitions a run into spec.count shard files. epoch_requests == 0 means one
// epoch holding everything (the axes compose: every K×epoch combination is
// valid). For spec.count == 1 shard 0's slices are byte-identical to
// SliceRun's output — the K=1 shard path reproduces the epoch path exactly.
std::vector<ShardFile> ShardRun(const Trace& trace, const Advice& advice,
                                uint64_t epoch_requests, const ShardSpec& spec);

// Single-file container encode: one kShardBoundary frame (epoch field = shard
// index), then per epoch a kTrace frame and a kAdvice frame, written by the
// same EpochFrameWriter as the epoch-stream encoders (src/server/rollover.h)
// under codec stages `c`. The boundary frame always stays raw (the merge must
// read it before touching any payload codec).
std::vector<uint8_t> EncodeShardFile(const ShardFile& shard, const KsegCompression& c = {});

// Decode + validate one shard file. `ok == false` carries the same
// reason/rule/diagnostic shape the audit uses: container defects reject under
// KAR-SEG-001, epoch-frame defects under KAR-SEG-002/003 through the same
// DecodeEpochFrame step the paired containers take, and boundary defects
// (frame order, epoch count, position monotonicity/bounds, digest or totals
// disagreeing with the decoded content) under KAR-SEG-011.
struct ShardLoadResult {
  bool ok = false;
  std::string reason;  // Prefixed ("segment stream: ...") like the audit's.
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  ShardFile file;
};

ShardLoadResult LoadShardFile(const std::string& path);
ShardLoadResult LoadShardBytes(std::span<const uint8_t> bytes);

// Recomputes the boundary digests/totals/chains from content — shared by the
// slicer, the loader's validation, and tests that build adversarial fixtures.
uint64_t DigestRids(const std::vector<RequestId>& rids);
uint64_t DigestTraceWindows(const EpochSlices& slices);
uint64_t DigestBalance(const EpochSlices& slices);

}  // namespace karousos

#endif  // SRC_SERVER_SHARD_H_
