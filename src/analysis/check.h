// Streaming model check over KSEG segment streams — the static half of the
// audit, runnable without a program, a store, or re-execution.
//
// Layering: SegmentChecker replays exactly the static prefix of the
// AuditSession's per-epoch work (trace-window ingestion, the slice-local
// KAR-ADV lint resolving through the CarryLint ledger, the KAR-SEG
// cross-epoch rules of src/analysis/carry_lint.h). The session holds the same
// CarryLint, driven in the same order, as its fast-reject pre-screen and its
// cross-epoch ledger, so the full audit rejects every stream the checker
// rejects, and advice that breaks a per-epoch rule in epoch e never reaches
// epoch e's ReExec. The audit reports the checker's first rule only when no
// dynamic check decides first. It runs epoch e's static rules after every
// earlier epoch's graph building and re-execution and after epoch e's own
// trace checks (window balance, epoch completeness), and its finish-time
// rules (KAR-SEG-009, dangling imports, the global write-order lint) after
// every epoch's re-execution and the trace coverage and balance checks. When
// one of those rejects first, the audit gives its reason, often with no rule:
// re-execution rejects tests/fixtures/seg/kar-seg-009.* with "two writes
// overwrite the same value" where the checker reports KAR-SEG-009, and a pair
// whose manifests agree on a size other than the one it was sliced at fails
// the audit's trace checks or re-execution where the checker reports a
// KAR-ADV rule. KAR-SEG-007 and KAR-SEG-008 findings are enforced only by
// this pass; a stream that breaks only them passes every dynamic check.
// The container walk (PairedSegmentCursor) owns the file-layer rules
// KAR-SEG-001..003 and 010; the checker and the streamed audit
// (src/audit/stream.h) both pull their epochs from it.
#ifndef SRC_ANALYSIS_CHECK_H_
#define SRC_ANALYSIS_CHECK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/carry_lint.h"
#include "src/analysis/diagnostic.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"

namespace karousos {

// A pull source of decoded epochs, in epoch order.
class EpochSource {
 public:
  virtual ~EpochSource() = default;

  // 1: *out holds the next epoch. 0: the stream ended cleanly. -1: the stream
  // is broken; the one finding that says why was appended to *diags.
  virtual int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) = 0;
};

// Walks a (trace, advice) container pair in lockstep, decoding one epoch per
// Next call; only the current frame pair's payloads are resident. The
// constructor reads both containers' epoch manifests (ReadEpochManifest,
// src/server/rollover.h), so the epoch size is known before any epoch is
// pulled. Owns the file-layer rules: unreadable container (001) and stream
// pairing (010, including two manifests that disagree) here, frame schema
// (002, including the manifest) and epoch sequencing (003) through the
// rollover steps. A broken pair fails its first Next with that finding.
// Both byte buffers must outlive the cursor.
class PairedSegmentCursor : public EpochSource {
 public:
  PairedSegmentCursor(std::span<const uint8_t> trace_bytes,
                      std::span<const uint8_t> advice_bytes);

  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) override;

  // The epoch size both manifests state; nullopt when the pair is broken
  // before its first epoch frame.
  std::optional<uint64_t> epoch_requests() const { return epoch_requests_; }
  // Epoch frames consumed across both containers.
  uint64_t frames() const { return frames_; }

 private:
  std::unique_ptr<SegmentReader> trace_;
  std::unique_ptr<SegmentReader> advice_;
  // The finding that breaks the pair before its first epoch frame.
  std::vector<LintDiagnostic> broken_;
  std::optional<uint64_t> epoch_requests_;
  uint64_t next_epoch_ = 0;
  uint64_t frames_ = 0;
};

// The reject reason a finding carries, prefixed by rule family as the
// session's throw sites do: "advice lint: ", "model check: ", or, for the
// file-layer rules only the container walk reports, "segment stream: ".
std::string RejectReason(const LintDiagnostic& d);

// Outcome of a model check. `reason`/`rule` describe the first
// error (the verdict the session's RejectError would carry); `diagnostics`
// holds every finding up to and including the epoch that produced it, plus
// the finish-time findings when that epoch was the last.
struct CheckResult {
  bool ok = true;
  std::string reason;
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  uint64_t epochs = 0;
  uint64_t frames = 0;  // Frames consumed across both containers.
};

// Per-epoch driver over already-decoded segments. Feed epochs in order; stop
// feeding once CheckEpoch returns false (an error-severity finding exists).
class SegmentChecker {
 public:
  explicit SegmentChecker(uint64_t epoch_requests);

  bool CheckEpoch(const EpochSegment& segment);
  // Runs the finish-time rules and returns the result. After a finding they
  // run only with `fed_all` (the stream ended and no epoch was left unfed):
  // they then add diagnostics, and the verdict stays the first finding's,
  // as in AuditSession::Finish.
  CheckResult Finish(bool fed_all = false);
  // Result so far without the finish-time rules — for callers whose container
  // walk failed (a truncated stream has no meaningful end-of-stream state).
  CheckResult Abandon();

 private:
  void NoteVerdict();

  uint64_t epoch_requests_;
  uint64_t epochs_fed_ = 0;
  std::set<RequestId> trace_rids_;
  std::set<RequestId> epoch_rids_;
  CarryLint carry_;
  CheckResult result_;
};

// Streaming check of a (trace, advice) container pair: walks both KSEG
// streams in lockstep (file-layer rules 001..003/010), then runs the
// SegmentChecker over each decoded epoch at the manifests' epoch size. A
// given `expected_epoch_requests` that the manifests do not state is a
// KAR-SEG-010 finding before any epoch is checked.
CheckResult CheckSegmentStreams(std::span<const uint8_t> trace_bytes,
                                std::span<const uint8_t> advice_bytes,
                                std::optional<uint64_t> expected_epoch_requests = std::nullopt);

// Slices a monolithic pair (the same SliceRun the session uses) and checks
// the slices. epoch_requests == 0 checks the run as a single epoch.
CheckResult CheckRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests);

// Collect-all front end over PairedSegmentCursor: decodes every epoch of a
// (trace, advice) container pair into EpochSlices. File-layer findings become
// a not-ok result with the same reason/rule `karousos check` reports. The
// audit does not call this: it pulls epochs one at a time (src/audit/
// stream.h). It stays for the pipeline benchmark's decode probe, which
// measures the whole decoded run. `slices.epoch_requests` is the manifests'
// epoch size; `expected_epoch_requests` is checked as in CheckSegmentStreams.
struct SegmentLoadResult {
  bool ok = true;
  std::string reason;
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  EpochSlices slices;
};
SegmentLoadResult LoadSegmentStreams(
    std::span<const uint8_t> trace_bytes, std::span<const uint8_t> advice_bytes,
    std::optional<uint64_t> expected_epoch_requests = std::nullopt);

}  // namespace karousos

#endif  // SRC_ANALYSIS_CHECK_H_
