#include "src/analysis/check.h"

#include <utility>

#include "src/analysis/lint.h"
#include "src/common/segment.h"

namespace karousos {

namespace {

std::string FrameLoc(const char* stream, const SegmentRecord& rec) {
  return std::string(stream) + "[offset " + std::to_string(rec.offset) + "]";
}

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

PairedSegmentCursor::PairedSegmentCursor(const std::vector<uint8_t>& trace_bytes,
                                         const std::vector<uint8_t>& advice_bytes) {
  trace_ = SegmentReader::FromBytes(trace_bytes.data(), trace_bytes.size(), &trace_open_error_);
  advice_ =
      SegmentReader::FromBytes(advice_bytes.data(), advice_bytes.size(), &advice_open_error_);
}

int PairedSegmentCursor::Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) {
  if (trace_ == nullptr) {
    return Fail(kKarSeg001, "trace", "unreadable segment container: " + trace_open_error_, diags);
  }
  if (advice_ == nullptr) {
    return Fail(kKarSeg001, "advice", "unreadable segment container: " + advice_open_error_,
                diags);
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
  if (trace_rec.kind != SegmentKind::kTrace) {
    return Fail(kKarSeg002, FrameLoc("trace", trace_rec),
                std::string("unexpected ") + SegmentKindName(trace_rec.kind) +
                    " frame in the trace stream",
                diags);
  }
  if (advice_rec.kind != SegmentKind::kAdvice) {
    return Fail(kKarSeg002, FrameLoc("advice", advice_rec),
                std::string("unexpected ") + SegmentKindName(advice_rec.kind) +
                    " frame in the advice stream",
                diags);
  }
  if (trace_rec.epoch != next_epoch_) {
    return Fail(kKarSeg003, FrameLoc("trace", trace_rec), SequencingMessage(trace_rec.epoch),
                diags);
  }
  if (advice_rec.epoch != next_epoch_) {
    return Fail(kKarSeg003, FrameLoc("advice", advice_rec), SequencingMessage(advice_rec.epoch),
                diags);
  }
  auto window = DecodeTraceSegmentPayload(trace_rec.payload, trace_rec.flags);
  if (!window) {
    return Fail(kKarSeg002, FrameLoc("trace", trace_rec),
                "trace segment payload for epoch " + std::to_string(trace_rec.epoch) +
                    " is malformed",
                diags);
  }
  auto advice_payload = DecodeAdviceSegmentPayload(advice_rec.payload, advice_rec.flags);
  if (!advice_payload) {
    return Fail(kKarSeg002, FrameLoc("advice", advice_rec),
                "advice segment payload for epoch " + std::to_string(advice_rec.epoch) +
                    " is malformed",
                diags);
  }
  out->epoch = next_epoch_;
  out->window = std::move(*window);
  out->advice = std::move(advice_payload->advice);
  out->imports = std::move(advice_payload->imports);
  ++next_epoch_;
  return 1;
}

std::string PairedSegmentCursor::SequencingMessage(uint64_t got) const {
  if (got < next_epoch_) {
    return "duplicate or out-of-order frame for epoch " + std::to_string(got) +
           " (expected epoch " + std::to_string(next_epoch_) + ")";
  }
  return "epoch gap: frame for epoch " + std::to_string(got) + " (expected epoch " +
         std::to_string(next_epoch_) + ")";
}

SegmentChecker::SegmentChecker(uint64_t epoch_requests) : epoch_requests_(epoch_requests) {
  carry_.Begin(epoch_requests, /*standalone=*/true);
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
  // allegations, lint the slice (carry-backed resolution), then the
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
  ctx.var_prec = [this](VarId vid, const OpRef& op) { return carry_.ResolveVarPrec(vid, op); };
  ctx.tx_op = [this](const TxOpRef& ref) { return carry_.ResolveTxOp(ref); };
  for (LintDiagnostic& d : LintAdviceEpoch(segment.advice, ctx)) {
    result_.diagnostics.push_back(std::move(d));
  }
  // Mirror the session's throw points: an ADV error stops before the SEG
  // pass, and a failing epoch is never folded into the carries.
  NoteVerdict();
  if (result_.ok) {
    carry_.CheckEpoch(segment, trace_rids_, &result_.diagnostics);
    NoteVerdict();
  }
  if (result_.ok) {
    carry_.EndEpoch(segment);
  }
  ++epochs_fed_;
  result_.epochs = epochs_fed_;
  return result_.ok;
}

CheckResult SegmentChecker::Finish() {
  if (result_.ok) {
    carry_.Finish(&result_.diagnostics);
    NoteVerdict();
  }
  result_.epochs = epochs_fed_;
  return std::move(result_);
}

CheckResult CheckSegmentStreams(const std::vector<uint8_t>& trace_bytes,
                                const std::vector<uint8_t>& advice_bytes,
                                uint64_t epoch_requests) {
  SegmentChecker checker(epoch_requests);
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  std::vector<LintDiagnostic> file_diags;
  EpochSegment segment;
  bool container_error = false;
  while (true) {
    int r = cursor.Next(&segment, &file_diags);
    if (r < 0) {
      container_error = true;
      break;
    }
    if (r == 0 || !checker.CheckEpoch(segment)) {
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
    result.ok = false;
    const LintDiagnostic& first = result.diagnostics.back();
    result.rule = first.rule;
    result.reason = RejectReason(first);
  } else {
    result = checker.Finish();
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
  for (const EpochSegment& segment : slices.segments) {
    if (!checker.CheckEpoch(segment)) {
      break;
    }
  }
  return checker.Finish();
}

SegmentLoadResult LoadSegmentStreams(const std::vector<uint8_t>& trace_bytes,
                                     const std::vector<uint8_t>& advice_bytes,
                                     uint64_t epoch_requests) {
  SegmentLoadResult out;
  out.slices.epoch_requests = epoch_requests;
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  EpochSegment segment;
  while (true) {
    int r = cursor.Next(&segment, &out.diagnostics);
    if (r < 0) {
      out.ok = false;
      const LintDiagnostic& first = out.diagnostics.back();
      out.rule = first.rule;
      out.reason = RejectReason(first);
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
