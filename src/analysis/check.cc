#include "src/analysis/check.h"

#include <utility>

#include "src/analysis/lint.h"
#include "src/common/segment.h"

namespace karousos {

namespace {

int Fail(const char* rule, std::string location, std::string message,
         std::vector<LintDiagnostic>* diags) {
  diags->push_back(
      LintDiagnostic{rule, LintSeverity::kError, std::move(location), std::move(message)});
  return -1;
}

}  // namespace

std::string RejectReason(const LintDiagnostic& d) {
  bool seg = d.rule.rfind("KAR-SEG", 0) == 0;
  bool file_layer = d.rule == kKarSeg001 || d.rule == kKarSeg002 || d.rule == kKarSeg003 ||
                    d.rule == kKarSeg010;
  const char* prefix = !seg ? "advice lint: " : file_layer ? "segment stream: " : "model check: ";
  return prefix + d.Format();
}

PairedSegmentCursor::PairedSegmentCursor(std::span<const uint8_t> trace_bytes,
                                         std::span<const uint8_t> advice_bytes) {
  std::string error;
  trace_ = SegmentReader::FromBytes(trace_bytes.data(), trace_bytes.size(), &error);
  if (trace_ == nullptr) {
    Fail(kKarSeg001, "trace", "unreadable segment container: " + error, &broken_);
    return;
  }
  advice_ = SegmentReader::FromBytes(advice_bytes.data(), advice_bytes.size(), &error);
  if (advice_ == nullptr) {
    Fail(kKarSeg001, "advice", "unreadable segment container: " + error, &broken_);
    return;
  }
  const std::optional<uint64_t> trace_size = ReadEpochManifest(trace_.get(), "trace", &broken_);
  if (!trace_size) return;
  const std::optional<uint64_t> advice_size =
      ReadEpochManifest(advice_.get(), "advice", &broken_);
  if (!advice_size) return;
  if (*trace_size != *advice_size) {
    Fail(kKarSeg010, "advice",
         "trace and advice streams disagree on the epoch size: the trace manifest states " +
             std::to_string(*trace_size) + ", the advice manifest " +
             std::to_string(*advice_size),
         &broken_);
    return;
  }
  epoch_requests_ = trace_size;
}

int PairedSegmentCursor::Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) {
  if (!broken_.empty()) {
    diags->push_back(broken_.front());
    return -1;
  }
  SegmentRecord trace_rec;
  bool have_trace = trace_->Next(&trace_rec);
  if (!have_trace && !trace_->ok()) {
    return Fail(kKarSeg001, "trace", "unreadable segment container: " + trace_->error(), diags);
  }
  SegmentRecord advice_rec;
  bool have_advice = advice_->Next(&advice_rec);
  if (!have_advice && !advice_->ok()) {
    return Fail(kKarSeg001, "advice", "unreadable segment container: " + advice_->error(),
                diags);
  }
  if (!have_trace && !have_advice) {
    return 0;
  }
  if (have_trace != have_advice) {
    uint64_t epoch = have_trace ? trace_rec.epoch : advice_rec.epoch;
    frames_ += 1;
    return Fail(kKarSeg010, have_trace ? "trace" : "advice",
                std::string("trace and advice streams disagree on the epoch set: the ") +
                    (have_trace ? "trace" : "advice") + " stream has a frame for epoch " +
                    std::to_string(epoch) + " but the " + (have_trace ? "advice" : "trace") +
                    " stream ended",
                diags);
  }
  frames_ += 2;
  if (!DecodeEpochFrame(trace_rec, SegmentKind::kTrace, next_epoch_, "trace", out, diags) ||
      !DecodeEpochFrame(advice_rec, SegmentKind::kAdvice, next_epoch_, "advice", out, diags)) {
    return -1;
  }
  ++next_epoch_;
  return 1;
}

SegmentChecker::SegmentChecker(uint64_t epoch_requests) : epoch_requests_(epoch_requests) {
  carry_.Begin(epoch_requests);
}

void SegmentChecker::NoteVerdict() {
  if (!result_.ok) {
    return;
  }
  for (const LintDiagnostic& d : result_.diagnostics) {
    if (d.severity == LintSeverity::kError) {
      result_.ok = false;
      result_.rule = d.rule;
      result_.reason = RejectReason(d);
      return;
    }
  }
}

bool SegmentChecker::CheckEpoch(const EpochSegment& segment) {
  if (!result_.ok) {
    return false;
  }
  // The static prefix of the session's StreamEpoch, in the same order: ingest
  // the window, derive this epoch's rid set, register the forward
  // allegations, lint the slice (ledger-backed resolution), then the
  // cross-epoch rules. Dynamic-only checks (trace balance, epoch
  // completeness) are deliberately absent — they are the audit's to make.
  for (const TraceEvent& ev : segment.window) {
    if (ev.kind == TraceEvent::Kind::kRequest) {
      trace_rids_.insert(ev.rid);
    }
  }
  epoch_rids_.clear();
  for (RequestId rid : trace_rids_) {
    if (EpochOfRid(rid, epoch_requests_) == epochs_fed_) {
      epoch_rids_.insert(rid);
    }
  }
  carry_.RegisterImports(segment);
  LintEpochContext ctx;
  ctx.trace_rids = &trace_rids_;
  ctx.epoch_rids = &epoch_rids_;
  ctx.var_prec = [this](VarId vid, const OpRef& op) {
    ResolvedVarEntry entry = carry_.ResolveVarEntry(vid, op);
    return VarPrecLookup{entry.present, entry.is_write};
  };
  ctx.tx_op = [this](const TxOpRef& ref) { return carry_.ResolveTxOp(ref); };
  for (LintDiagnostic& d : LintAdviceEpoch(segment.advice, ctx)) {
    result_.diagnostics.push_back(std::move(d));
  }
  // Mirror the session's throw points: an ADV error stops before the SEG
  // pass. A failing epoch is folded into the ledger too: if it was the
  // last one, Finish runs the finish-time rules over it.
  NoteVerdict();
  if (result_.ok) {
    carry_.CheckEpoch(segment, trace_rids_, &result_.diagnostics);
    NoteVerdict();
  }
  carry_.EndEpoch(segment);
  ++epochs_fed_;
  result_.epochs = epochs_fed_;
  return result_.ok;
}

CheckResult SegmentChecker::Finish(bool fed_all) {
  if (result_.ok || fed_all) {
    carry_.Finish(&result_.diagnostics);
    NoteVerdict();  // Keeps the first finding's verdict.
  }
  result_.epochs = epochs_fed_;
  return std::move(result_);
}

namespace {

// A KAR-SEG-010 finding when the cursor's manifests do not state `expected`.
bool MatchesExpectation(const PairedSegmentCursor& cursor, std::optional<uint64_t> expected,
                        std::vector<LintDiagnostic>* diags) {
  if (!expected || !cursor.epoch_requests() || *cursor.epoch_requests() == *expected) {
    return true;
  }
  Fail(kKarSeg010, "manifest",
       "the containers state epoch size " + std::to_string(*cursor.epoch_requests()) +
           ", not the expected " + std::to_string(*expected),
       diags);
  return false;
}

// Turns the last file-layer finding into a not-ok verdict.
template <typename Result>
void RejectWithLast(Result* result) {
  result->ok = false;
  const LintDiagnostic& last = result->diagnostics.back();
  result->rule = last.rule;
  result->reason = RejectReason(last);
}

}  // namespace

CheckResult CheckSegmentStreams(std::span<const uint8_t> trace_bytes,
                                std::span<const uint8_t> advice_bytes,
                                std::optional<uint64_t> expected_epoch_requests) {
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  SegmentChecker checker(cursor.epoch_requests().value_or(0));
  std::vector<LintDiagnostic> file_diags;
  EpochSegment segment;
  bool container_error = !MatchesExpectation(cursor, expected_epoch_requests, &file_diags);
  bool cut_short = false;
  while (!container_error) {
    int r = cursor.Next(&segment, &file_diags);
    if (r < 0) {
      container_error = true;
      break;
    }
    if (r == 0) {
      break;
    }
    if (!checker.CheckEpoch(segment)) {
      // One more pull says whether that was the last epoch; what it finds,
      // a broken frame included, is never reported.
      std::vector<LintDiagnostic> unreported;
      cut_short = cursor.Next(&segment, &unreported) != 0;
      break;
    }
  }
  CheckResult result;
  if (container_error) {
    // An unreadable stream has no meaningful end-of-stream state; skip the
    // finish rules and let the file-layer finding be the verdict.
    result = checker.Abandon();
    for (LintDiagnostic& d : file_diags) {
      result.diagnostics.push_back(std::move(d));
    }
    RejectWithLast(&result);
  } else {
    result = checker.Finish(/*fed_all=*/!cut_short);
  }
  result.frames = cursor.frames();
  return result;
}

CheckResult SegmentChecker::Abandon() {
  result_.epochs = epochs_fed_;
  return std::move(result_);
}

CheckResult CheckRun(const Trace& trace, const Advice& advice, uint64_t epoch_requests) {
  EpochSlices slices = SliceRun(trace, advice, epoch_requests);
  SegmentChecker checker(slices.epoch_requests);
  bool fed_all = true;
  for (size_t i = 0; i < slices.segments.size(); ++i) {
    if (!checker.CheckEpoch(slices.segments[i])) {
      fed_all = i + 1 == slices.segments.size();
      break;
    }
  }
  return checker.Finish(fed_all);
}

SegmentLoadResult LoadSegmentStreams(std::span<const uint8_t> trace_bytes,
                                     std::span<const uint8_t> advice_bytes,
                                     std::optional<uint64_t> expected_epoch_requests) {
  SegmentLoadResult out;
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  out.slices.epoch_requests = cursor.epoch_requests().value_or(0);
  if (!MatchesExpectation(cursor, expected_epoch_requests, &out.diagnostics)) {
    RejectWithLast(&out);
    return out;
  }
  EpochSegment segment;
  while (true) {
    int r = cursor.Next(&segment, &out.diagnostics);
    if (r < 0) {
      RejectWithLast(&out);
      break;
    }
    if (r == 0) {
      break;
    }
    out.slices.segments.push_back(std::move(segment));
  }
  return out;
}

}  // namespace karousos
