// Epoch-streamed audit drivers: decode a stored run into epoch slices and
// feed them through an AuditSession. This is the path `karousos audit`
// takes for KSEG containers and for monolithic files given --epoch-size,
// --checkpoint or --resume — the verdict matches the one-shot AuditOnly for
// every epoch size, but per-epoch advice is dropped as soon as its epoch is
// re-executed.
#ifndef SRC_AUDIT_STREAM_H_
#define SRC_AUDIT_STREAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"
#include "src/verifier/session.h"

namespace karousos {

struct StreamAuditResult {
  AuditResult audit;
  uint64_t epochs = 0;
};

// Feeds every segment of `slices` at or beyond session->next_epoch() —
// i.e. resumes cleanly from a restored checkpoint. When `after_epoch` is
// set it runs after each FeedEpoch call (checkpoint writers hook in here).
// Stops early once the session is decided.
void FeedRemaining(AuditSession* session, const EpochSlices& slices,
                   const std::function<void(AuditSession&)>& after_epoch = nullptr);

// The one streamed audit loop: FeedRemaining over the decoded run, then
// Finish. A run whose containers failed to load (`run.ok` false) rejects
// with the loader's reason, rule and diagnostics and never reaches the
// session. `session` may be fresh or restored from a checkpoint.
StreamAuditResult RunStreamedAudit(AuditSession* session, const SegmentLoadResult& run,
                                   const std::function<void(AuditSession&)>& after_epoch = nullptr);

// Slices the run at epoch_requests (0 = one epoch holding everything) and
// audits it epoch by epoch. Reaches the same verdict, reason, rule, and
// diagnostics as AuditOnly over the unsliced inputs.
StreamAuditResult AuditStreamed(const AppSpec& app, const Trace& trace, const Advice& advice,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked = nullptr);

// Audits directly from KSEG container bytes (the production artifact): the
// container front end (src/analysis/check.h's LoadSegmentStreams) decodes and
// file-checks both streams, then the decoded slices run through an
// AuditSession. A corrupt container rejects with the same reason/rule
// `karousos check` reports; it never reaches the session.
StreamAuditResult AuditSegments(const AppSpec& app, const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked = nullptr);

}  // namespace karousos

#endif  // SRC_AUDIT_STREAM_H_
