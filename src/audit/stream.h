// Epoch-streamed audit drivers: pull a stored run's epochs one at a time and
// feed them through an AuditSession. This is the path `karousos audit` takes
// for KSEG containers and for monolithic files given --epoch-size,
// --checkpoint or --resume. The verdict matches the one-shot AuditOnly for
// every epoch size.
//
// Decode, feed, drop: a helper thread decodes epoch k+1 while the session
// feeds epoch k, and every fed epoch goes back to that thread to be
// destroyed. Only a few epochs are ever decoded at once (the one being fed,
// the next one, and the one being freed); what the session keeps across
// epochs is its carries (src/verifier/session.h).
#ifndef SRC_AUDIT_STREAM_H_
#define SRC_AUDIT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"
#include "src/verifier/session.h"

namespace karousos {

struct StreamAuditResult {
  AuditResult audit;
  // Epochs pulled from the source, including any a restored checkpoint
  // already covered; a mid-stream rejection stops the count early.
  uint64_t epochs = 0;
};

// An already-sliced run as an EpochSource. Each slice is moved out when
// pulled, so its memory goes as soon as the fed epoch is dropped.
class SliceSource : public EpochSource {
 public:
  explicit SliceSource(EpochSlices&& slices) : slices_(std::move(slices)) {}

  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) override;

 private:
  EpochSlices slices_;
  size_t next_ = 0;
};

// The one streamed audit loop. Pulls `source` on a helper decode thread, one
// epoch ahead of the session, and feeds every epoch at or beyond
// session->next_epoch(): epochs a restored checkpoint covers are still
// decoded and file-checked, then dropped. When `after_epoch` is set it runs
// after each FeedEpoch call (checkpoint writers hook in here). Finish builds
// the verdict.
//
// The first finding in stream order wins. Pulling stops once the session is
// decided, so after a rejection at epoch j nothing past epoch j+1 is decoded
// and a broken frame there is never reported. A source that breaks first
// rejects with its file-layer finding, the reason/rule `karousos check`
// reports. Only the calling thread touches `session` and `after_epoch`; an
// exception thrown by the source is rethrown here.
StreamAuditResult RunStreamedAudit(AuditSession* session, EpochSource* source,
                                   const std::function<void(AuditSession&)>& after_epoch = nullptr);

// Slices the run at epoch_requests (0 = one epoch holding everything) and
// audits it epoch by epoch. Reaches the same verdict, reason, rule, and
// diagnostics as AuditOnly over the unsliced inputs.
StreamAuditResult AuditStreamed(const AppSpec& app, const Trace& trace, const Advice& advice,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked = nullptr);

// Audits directly from KSEG container bytes (the production artifact),
// pulling epochs from a PairedSegmentCursor (src/analysis/check.h). A corrupt
// container rejects with the reason/rule `karousos check` reports unless an
// earlier epoch already decided the audit.
StreamAuditResult AuditSegments(const AppSpec& app, const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked = nullptr);

}  // namespace karousos

#endif  // SRC_AUDIT_STREAM_H_
