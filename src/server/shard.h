// Shard-axis slicing: partitions one run's advice across K self-contained
// shard files so K independent processes can audit in parallel (ROADMAP
// item 2; the scale-out counterpart to the epoch slicer in rollover.h).
//
// The two axes compose orthogonally:
//   * epochs  slice *time* — every shard file still carries one frame pair
//     per epoch, and a shard audit streams them through the verifier one
//     epoch at a time. Its residency is not one epoch, though: LoadShardFile
//     decodes every epoch before the audit starts, and the slices stay
//     resident until the artifact is written (the exports read logged values
//     from them). A shard process holds its whole decoded file: the full
//     trace plus its share of the advice;
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
// axis). One import pass over the full advice (SlicePartitions,
// src/server/rollover.h) computes them for every shard and epoch.
//
// Every shard file opens with a kShardBoundary frame stating only what the
// shard's content cannot: the partition (shard, count, mode), the epoch size
// and count, the covered rid set, each write-order entry's global position
// and the alleged total, and the export obligations. The loader checks each
// for form and against the content it constrains (KAR-SEG-011); the merge
// checks them against each other (KAR-SEG-012..015). Nothing the content
// gives (advice totals, write chains, trace digests) is restated: the shard
// audit computes the trace digests the merge compares from the slices.
#ifndef SRC_SERVER_SHARD_H_
#define SRC_SERVER_SHARD_H_

#include <cstdint>
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

// The cross-shard boundary manifest (first frame of every shard file).
struct ShardBoundary {
  uint32_t shard = 0;
  uint32_t count = 1;
  ShardMode mode = ShardMode::kHash;
  uint64_t epoch_requests = 0;
  uint64_t epochs = 0;  // Epoch frame pairs that follow the boundary frame.

  // Trace rids owned by this shard, ascending. The merge checks that the K
  // rid sets partition the trace exactly (KAR-SEG-012).
  std::vector<RequestId> rids;

  // Global position (in the alleged total write order) of each write-order
  // entry this shard carries, aligned with the concatenation of its per-epoch
  // chunks; plus the alleged total length. The merge re-stitches: positions
  // across shards must cover 0..total-1 exactly once (KAR-SEG-013).
  std::vector<uint64_t> write_order_positions;
  uint64_t write_order_total = 0;

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
// (frame order, epoch count, rid order and coverage, position
// monotonicity/bounds, obligation order and ownership) under KAR-SEG-011.
struct ShardLoadResult {
  bool ok = false;
  std::string reason;  // Prefixed ("segment stream: ...") like the audit's.
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  ShardFile file;
};

ShardLoadResult LoadShardFile(const std::string& path);
ShardLoadResult LoadShardBytes(std::span<const uint8_t> bytes);

}  // namespace karousos

#endif  // SRC_SERVER_SHARD_H_
