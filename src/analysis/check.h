// Standalone streaming model check over KSEG segment streams — the static
// half of the audit, runnable without a program, a store, or re-execution.
//
// Layering: SegmentChecker replays exactly the static prefix of the
// AuditSession's per-epoch work (trace-window ingestion, the slice-local
// KAR-ADV lint with carry-backed resolution, the KAR-SEG cross-epoch rules of
// src/analysis/carry_lint.h), so any stream the checker rejects is rejected
// by the full audit with the same first rule — and the session's fast-reject
// pre-screen is this same pass, always on, so statically-rejectable advice
// never reaches ReExec. KAR-SEG-007 and KAR-SEG-008 findings are enforced only
// by this pass; a stream that breaks only them passes every dynamic check.
// The container walk (PairedSegmentCursor) owns the file-layer rules
// KAR-SEG-001..003 and 010; the checker and the streamed audit
// (src/audit/stream.h) both pull their epochs from it.
#ifndef SRC_ANALYSIS_CHECK_H_
#define SRC_ANALYSIS_CHECK_H_

#include <cstdint>
#include <memory>
#include <set>
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
// Next call; only the current frame pair's payloads are resident. Owns the
// file-layer rules: unreadable container (001), frame schema (002), epoch
// sequencing (003), stream pairing (010). Both byte buffers must outlive the
// cursor.
class PairedSegmentCursor : public EpochSource {
 public:
  PairedSegmentCursor(const std::vector<uint8_t>& trace_bytes,
                      const std::vector<uint8_t>& advice_bytes);

  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) override;

  // Frames consumed across both containers.
  uint64_t frames() const { return frames_; }

 private:
  std::string SequencingMessage(uint64_t got) const;

  std::unique_ptr<SegmentReader> trace_;
  std::unique_ptr<SegmentReader> advice_;
  std::string trace_open_error_;
  std::string advice_open_error_;
  uint64_t next_epoch_ = 0;
  uint64_t frames_ = 0;
};

// The reject reason a finding carries, prefixed by rule family as the
// session's throw sites do: "advice lint: ", "model check: ", or, for the
// file-layer rules only the container walk reports, "segment stream: ".
std::string RejectReason(const LintDiagnostic& d);

// Outcome of a standalone model check. `reason`/`rule` describe the first
// error (the verdict the session's RejectError would carry); `diagnostics`
// holds every finding up to and including the epoch that produced it.
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
  CheckResult Finish();
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
// SegmentChecker over each decoded epoch.
CheckResult CheckSegmentStreams(const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                uint64_t epoch_requests);

// Slices a monolithic pair (the same SliceRun the session uses) and checks
// the slices. epoch_requests == 0 checks the run as a single epoch.
CheckResult CheckRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests);

// Collect-all front end over PairedSegmentCursor: decodes every epoch of a
// (trace, advice) container pair into EpochSlices. File-layer findings become
// a not-ok result with the same reason/rule `karousos check` reports. The
// audit does not call this: it pulls epochs one at a time (src/audit/
// stream.h). It stays for the pipeline benchmark's decode probe, which
// measures the whole decoded run.
struct SegmentLoadResult {
  bool ok = true;
  std::string reason;
  std::string rule;
  std::vector<LintDiagnostic> diagnostics;
  EpochSlices slices;
};
SegmentLoadResult LoadSegmentStreams(const std::vector<uint8_t>& trace_bytes,
                                     const std::vector<uint8_t>& advice_bytes,
                                     uint64_t epoch_requests);

}  // namespace karousos

#endif  // SRC_ANALYSIS_CHECK_H_
