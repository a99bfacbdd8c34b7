#include "src/audit/stream.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace karousos {

int SliceSource::Next(EpochSegment* out, std::vector<LintDiagnostic>* /*diags*/) {
  if (next_ == slices_.segments.size()) {
    return 0;
  }
  *out = std::move(slices_.segments[next_++]);
  return 1;
}

namespace {

// The helper decode thread behind RunStreamedAudit. It pulls the source at
// most one epoch ahead of the caller (a queue of depth 1) and destroys the
// epochs the caller hands back, so each decoded segment is allocated and
// freed on this one thread. Freeing the millions of map and Value nodes of
// a dropped epoch on the session's thread instead costs it more than the
// decode: glibc consolidates those chunks on its next allocations.
class DecodeAhead {
 public:
  explicit DecodeAhead(EpochSource* source) : source_(source), thread_([this] { Run(); }) {}

  ~DecodeAhead() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  DecodeAhead(const DecodeAhead&) = delete;
  DecodeAhead& operator=(const DecodeAhead&) = delete;

  // Blocks for the next epoch, with EpochSource::Next's contract. Rethrows
  // what the source threw.
  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return full_; });
    full_ = false;
    if (error_) {
      std::rethrow_exception(error_);
    }
    *out = std::move(ready_);
    for (LintDiagnostic& d : ready_diags_) {
      diags->push_back(std::move(d));
    }
    ready_diags_.clear();
    const int status = status_;
    lock.unlock();
    cv_.notify_all();
    return status;
  }

  // Hands a fed epoch back to be destroyed on the decode thread.
  void Release(EpochSegment&& segment) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      spent_.push_back(std::move(segment));
    }
    cv_.notify_all();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !spent_.empty() || (!full_ && !ended_); });
      if (!spent_.empty()) {
        std::vector<EpochSegment> doomed = std::move(spent_);
        spent_.clear();
        lock.unlock();
        doomed.clear();
        lock.lock();
        continue;
      }
      if (stop_) {
        break;
      }
      lock.unlock();
      EpochSegment segment;
      std::vector<LintDiagnostic> diags;
      int status = -1;
      std::exception_ptr error;
      try {
        status = source_->Next(&segment, &diags);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      ready_ = std::move(segment);
      ready_diags_ = std::move(diags);
      status_ = status;
      error_ = error;
      full_ = true;
      ended_ = status != 1 || error != nullptr;
      cv_.notify_all();
    }
    // Stopped with an epoch still waiting: it was decoded here, so it is
    // freed here too.
    EpochSegment unused = std::move(ready_);
    lock.unlock();
  }

  EpochSource* const source_;
  std::mutex mu_;
  std::condition_variable cv_;
  // The decoded epoch waiting for the caller (full_), and how its pull ended.
  EpochSegment ready_;
  std::vector<LintDiagnostic> ready_diags_;
  int status_ = 0;
  std::exception_ptr error_;
  bool full_ = false;
  bool ended_ = false;  // The source ended, broke or threw; pull no more.
  bool stop_ = false;
  std::vector<EpochSegment> spent_;  // Fed epochs awaiting destruction.
  std::thread thread_;                // Last: starts once the state above exists.
};

}  // namespace

StreamAuditResult RunStreamedAudit(AuditSession* session, EpochSource* source,
                                   const std::function<void(AuditSession&)>& after_epoch) {
  StreamAuditResult result;
  std::vector<LintDiagnostic> file_diags;
  int status = 0;
  {
    DecodeAhead ahead(source);
    EpochSegment segment;
    while ((status = ahead.Next(&segment, &file_diags)) == 1) {
      ++result.epochs;
      bool alive = true;
      if (segment.epoch >= session->next_epoch()) {  // Else the checkpoint covers it.
        alive = session->FeedEpoch(segment);
        if (after_epoch) {
          after_epoch(*session);
        }
      }
      ahead.Release(std::move(segment));
      if (!alive) {
        break;  // Verdict fixed mid-stream; Finish() will report it.
      }
    }
  }
  if (status < 0) {
    const LintDiagnostic& finding = file_diags.back();
    result.audit.reason = RejectReason(finding);
    result.audit.rule = finding.rule;
    result.audit.diagnostics = std::move(file_diags);
    return result;
  }
  result.audit = session->Finish();
  return result;
}

namespace {

StreamAuditResult AuditSource(const AppSpec& app, EpochSource* source, uint64_t epoch_requests,
                              const VerifierConfig& config, const UntrackedAccessLog* untracked) {
  AuditSession session(*app.program, config, epoch_requests);
  if (untracked != nullptr) {
    session.set_untracked_accesses(untracked);
  }
  return RunStreamedAudit(&session, source);
}

}  // namespace

StreamAuditResult AuditSegments(const AppSpec& app, const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked) {
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  return AuditSource(app, &cursor, epoch_requests, config, untracked);
}

StreamAuditResult AuditStreamed(const AppSpec& app, const Trace& trace, const Advice& advice,
                                const VerifierConfig& config, uint64_t epoch_requests,
                                const UntrackedAccessLog* untracked) {
  EpochSlices slices = SliceRun(trace, advice, epoch_requests);
  const uint64_t sliced_at = slices.epoch_requests;
  SliceSource source(std::move(slices));
  return AuditSource(app, &source, sliced_at, config, untracked);
}

}  // namespace karousos
