// The audit session: the one audit path. AuditSession consumes one
// EpochSegment at a time (trace window + advice slice + continuity imports,
// as produced by SliceRun or a collector's segment stream) and assembles the
// verdict at Finish. Between epochs the session's entire cross-epoch state —
// the carry state — serializes to a single checkpoint frame, so an
// interrupted audit resumes from the last completed epoch instead of
// restarting.
//
// For the same complete (trace, advice) pair, feeding the slices of any
// epoch size (including one epoch holding everything) reaches the same
// verdict, reason, rule, and diagnostics — honest runs and single-fault
// adversarial runs alike. Per-epoch advice is dropped once its epoch is
// re-executed. What stays resident is the pre-screen's ledger (transaction
// sizes, PUT shapes, var-log entry kinds, the write order, the pending
// imports; src/analysis/carry_lint.h) and the values re-execution reads
// beside it: PUT payloads and the writes to variables that are not
// request-scoped.
#ifndef SRC_VERIFIER_SESSION_H_
#define SRC_VERIFIER_SESSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/server/rollover.h"
#include "src/verifier/verifier.h"

namespace karousos {

class AuditSession {
 public:
  AuditSession(const Program& program, const VerifierConfig& config, uint64_t epoch_requests);

  // As Verifier::set_untracked_accesses: attach the §5 race scan's findings
  // (warnings) to the final result. The log must outlive Finish().
  void set_untracked_accesses(const UntrackedAccessLog* log);

  // Feeds the next epoch. Segments must arrive in epoch order starting at
  // next_epoch(); an out-of-order segment rejects the audit (segment streams
  // are part of the server's claim, so reordering is misbehavior). Returns
  // false once the verdict is already determined — callers may stop feeding
  // and jump to Finish(), or keep draining; both are safe.
  bool FeedEpoch(const EpochSegment& segment);

  // Runs the global end-of-stream checks (write-order lint, the residual
  // import closure and the other finish-time pre-screen rules, isolation,
  // internal-state edges, graph acyclicity) and assembles the verdict. Call exactly once, after the last epoch fed.
  // After a mid-stream rejection the verdict stays that rejection, and the
  // finish-time static rules run only if `fed_all` says the source ended
  // and none of its epochs was left unfed: they add their findings to the
  // result. By default they are skipped, since they would judge epochs never
  // fed. Without a rejection `fed_all` changes nothing.
  AuditResult Finish(bool fed_all = false);

  // Serializes the full carry state as one kCheckpoint segment frame. Valid
  // between epochs (i.e. after any FeedEpoch call and before Finish).
  std::vector<uint8_t> SaveCheckpoint() const;

  // Reconstructs a session from SaveCheckpoint bytes. The program and the
  // config must match the checkpointing session's (the isolation level is
  // embedded and verified). The bytes must hold exactly one raw checkpoint
  // frame whose header epoch equals the payload's epoch count (the shard
  // artifact's container rule, ReadSingleFrame). Returns nullptr and sets
  // *error on mismatch or malformed bytes.
  static std::unique_ptr<AuditSession> Restore(const Program& program,
                                               const VerifierConfig& config,
                                               std::span<const uint8_t> bytes,
                                               std::string* error);

  // The epoch index the next FeedEpoch call must carry.
  uint64_t next_epoch() const;
  // Requests per epoch (0 = single epoch). After Restore this is the
  // checkpointing session's value, so callers re-slice consistently.
  uint64_t epoch_requests() const;
  // True once a mid-stream rejection fixed the verdict.
  bool decided() const;
  // Var-log writes that still hold a value: the writes to variables a later
  // epoch can still name. Request-scoped writes keep their ledger kind only.
  size_t carried_var_values() const;
  // Serialized size of the cross-epoch state (the carried values and the
  // pre-screen's state with its ledger, in their checkpoint encoding),
  // computed on demand. It almost only grows, so after Finish this is about
  // its peak. A model, not a measurement — real memory is the kernel's peak
  // RSS. Kept only for the pipeline bench's ungated
  // verifier.modelled_resident_bytes; the audit itself never calls it.
  size_t peak_resident_advice_bytes() const;
  // The execution graph built so far, for tests of its layout.
  const DirectedGraph& graph() const;

 private:
  // The checkpoint's carried-values section.
  void WriteCarriedValues(ByteWriter* w) const;
  // Rebuilds a session from a checkpoint frame's payload. Returns nullptr and
  // sets *error when the payload is refused.
  static std::unique_ptr<AuditSession> FromCheckpointPayload(const Program& program,
                                                             const VerifierConfig& config,
                                                             const std::vector<uint8_t>& bytes,
                                                             std::string* error);

  Verifier v_;
};

}  // namespace karousos

#endif  // SRC_VERIFIER_SESSION_H_
