#include "src/audit/stream.h"

#include <utility>

namespace karousos {

void FeedRemaining(AuditSession* session, const EpochSlices& slices,
                   const std::function<void(AuditSession&)>& after_epoch) {
  for (const EpochSegment& segment : slices.segments) {
    if (segment.epoch < session->next_epoch()) {
      continue;  // Already covered by the restored checkpoint.
    }
    bool alive = session->FeedEpoch(segment);
    if (after_epoch) {
      after_epoch(*session);
    }
    if (!alive) {
      break;  // Verdict fixed mid-stream; Finish() will report it.
    }
  }
}

StreamAuditResult RunStreamedAudit(AuditSession* session, const SegmentLoadResult& run,
                                   const std::function<void(AuditSession&)>& after_epoch) {
  StreamAuditResult result;
  result.epochs = run.slices.segments.size();
  if (!run.ok) {
    result.audit.reason = run.reason;
    result.audit.rule = run.rule;
    result.audit.diagnostics = run.diagnostics;
    return result;
  }
  FeedRemaining(session, run.slices, after_epoch);
  result.audit = session->Finish();
  return result;
}

namespace {

StreamAuditResult AuditRun(const AppSpec& app, const SegmentLoadResult& run,
                           const VerifierConfig& config, const UntrackedAccessLog* untracked) {
  AuditSession session(*app.program, config, run.slices.epoch_requests);
  if (untracked != nullptr) {
    session.set_untracked_accesses(untracked);
  }
  return RunStreamedAudit(&session, run);
}

}  // namespace

StreamAuditResult AuditSegments(const AppSpec& app, const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked) {
  return AuditRun(app, LoadSegmentStreams(trace_bytes, advice_bytes, epoch_requests), config,
                  untracked);
}

StreamAuditResult AuditStreamed(const AppSpec& app, const Trace& trace, const Advice& advice,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked) {
  SegmentLoadResult run;
  run.slices = SliceRun(trace, advice, epoch_requests);
  return AuditRun(app, run, config, untracked);
}

}  // namespace karousos
