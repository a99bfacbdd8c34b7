// Epoch-streaming equivalence: for the same complete (trace, advice) pair,
// the streamed AuditSession must reach the one-shot verifier's verdict,
// reason, rule, and diagnostics at every epoch size and thread count —
// honest and adversarial runs alike. Plus the resume story: a checkpoint
// saved mid-stream restores into a session that finishes with the identical
// verdict, and malformed or mismatched checkpoints are refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/common/segment.h"
#include "src/kem/varid.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct HonestRun {
  AppSpec app;
  ServerRunResult server;
};

HonestRun RunApp(const std::string& name, size_t requests, int concurrency = 8) {
  HonestRun run{name == "motd"     ? MakeMotdApp()
                : name == "stacks" ? MakeStacksApp()
                                   : MakeWikiApp(),
                {}};
  WorkloadConfig wl;
  wl.app = name;
  wl.kind = name == "wiki" ? WorkloadKind::kWikiMix : WorkloadKind::kMixed;
  wl.requests = requests;
  ServerConfig config;
  config.concurrency = concurrency;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

void ExpectSameOutcome(const AuditResult& expected, const AuditResult& actual,
                       const std::string& context) {
  EXPECT_EQ(expected.accepted, actual.accepted) << context << ": " << actual.reason;
  EXPECT_EQ(expected.reason, actual.reason) << context;
  EXPECT_EQ(expected.rule, actual.rule) << context;
  ASSERT_EQ(expected.diagnostics.size(), actual.diagnostics.size()) << context;
  for (size_t i = 0; i < expected.diagnostics.size(); ++i) {
    EXPECT_EQ(expected.diagnostics[i].Format(), actual.diagnostics[i].Format())
        << context << " diagnostic " << i;
  }
}

// The equivalence sweep: one-shot oracle vs epoch sizes {1, 7, 50, 0=∞} at
// threads {1, 4}.
void ExpectStreamMatchesOneShot(const HonestRun& run) {
  AuditResult oneshot =
      AuditOnly(run.app, run.server.trace, run.server.advice,
                VerifierConfig{IsolationLevel::kSerializable, 1},
                &run.server.untracked_accesses);
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{0}}) {
    for (unsigned threads : {1u, 4u}) {
      StreamAuditResult streamed = AuditStreamed(
          run.app, run.server.trace, run.server.advice,
          VerifierConfig{IsolationLevel::kSerializable, threads}, epoch_size,
          &run.server.untracked_accesses);
      ExpectSameOutcome(oneshot, streamed.audit,
                        "epoch_size=" + std::to_string(epoch_size) +
                            " threads=" + std::to_string(threads));
    }
  }
}

TEST(EpochEquivalenceTest, HonestMotd) { ExpectStreamMatchesOneShot(RunApp("motd", 60)); }

TEST(EpochEquivalenceTest, HonestStacks) { ExpectStreamMatchesOneShot(RunApp("stacks", 60)); }

TEST(EpochEquivalenceTest, HonestWiki) { ExpectStreamMatchesOneShot(RunApp("wiki", 60)); }

// --- Adversarial equivalence: every mutation the one-shot verifier rejects --
// --- must reject identically when streamed. --------------------------------

TEST(EpochEquivalenceTest, ForgedResponse) {
  HonestRun run = RunApp("motd", 40);
  for (TraceEvent& ev : run.server.trace.events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"msg", "forged"}});
      break;
    }
  }
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, ForgedResponseInLateEpoch) {
  HonestRun run = RunApp("motd", 40);
  for (auto it = run.server.trace.events.rbegin(); it != run.server.trace.events.rend();
       ++it) {
    if (it->kind == TraceEvent::Kind::kResponse) {
      it->payload = MakeMap({{"msg", "forged"}});
      break;
    }
  }
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, TamperedVarLogWriteValue) {
  HonestRun run = RunApp("motd", 40);
  bool mutated = false;
  for (auto& [vid, log] : run.server.advice.var_logs) {
    for (auto& [op, entry] : log) {
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        entry.value = Value("poisoned");
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, GhostVarLogEntry) {
  HonestRun run = RunApp("motd", 40);
  VarId vid = ResolveVarId("motd", VarScope::kGlobal, 0);
  VarLogEntry ghost;
  ghost.kind = VarLogEntry::Kind::kWrite;
  ghost.value = Value("ghost");
  ghost.prec = kNilOp;
  run.server.advice.var_logs[vid].emplace(OpRef{1, 0x1234, 77}, ghost);
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, DroppedHandlerLogEntry) {
  HonestRun run = RunApp("stacks", 60);
  bool mutated = false;
  for (auto& [rid, log] : run.server.advice.handler_logs) {
    if (!log.empty()) {
      log.pop_back();
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, InflatedOpcount) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.opcounts.empty());
  run.server.advice.opcounts.begin()->second += 1;
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, MissingResponseEmittedBy) {
  HonestRun run = RunApp("motd", 40);
  ASSERT_FALSE(run.server.advice.response_emitted_by.empty());
  run.server.advice.response_emitted_by.erase(run.server.advice.response_emitted_by.begin());
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, SwappedWriteOrder) {
  HonestRun run = RunApp("stacks", 60);
  ASSERT_GE(run.server.advice.write_order.size(), 2u);
  std::swap(run.server.advice.write_order.front(), run.server.advice.write_order.back());
  ExpectStreamMatchesOneShot(run);
}

TEST(EpochEquivalenceTest, GetClaimedNotFound) {
  HonestRun run = RunApp("stacks", 60);
  bool mutated = false;
  for (auto& [txn, log] : run.server.advice.tx_logs) {
    for (TxOperation& op : log) {
      if (op.type == TxOpType::kGet && op.get_found) {
        op.get_found = false;
        op.get_from = kNilTxOp;
        mutated = true;
        break;
      }
    }
    if (mutated) {
      break;
    }
  }
  if (!mutated) {
    GTEST_SKIP() << "no found GET in this schedule";
  }
  // This mutation diverts control flow, so the one-shot verifier catches it
  // as intra-group divergence — a check whose firing depends on the
  // re-execution group's composition. Epoch slicing legitimately changes
  // that composition (a group cannot span epochs), so at epoch size 1 the
  // mutated request re-executes alone and the same fault surfaces at the
  // next check instead. The soundness contract is rejection at every size;
  // reason identity is asserted where grouping is preserved.
  AuditResult oneshot =
      AuditOnly(run.app, run.server.trace, run.server.advice,
                VerifierConfig{IsolationLevel::kSerializable, 1},
                &run.server.untracked_accesses);
  ASSERT_FALSE(oneshot.accepted);
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{50}, uint64_t{0}}) {
    for (unsigned threads : {1u, 4u}) {
      StreamAuditResult streamed = AuditStreamed(
          run.app, run.server.trace, run.server.advice,
          VerifierConfig{IsolationLevel::kSerializable, threads}, epoch_size,
          &run.server.untracked_accesses);
      std::string context = "epoch_size=" + std::to_string(epoch_size) +
                            " threads=" + std::to_string(threads);
      EXPECT_FALSE(streamed.audit.accepted) << context;
      if (epoch_size != 1) {
        ExpectSameOutcome(oneshot, streamed.audit, context);
      }
    }
  }
}

TEST(EpochEquivalenceTest, UnbalancedTraceMissingResponse) {
  HonestRun run = RunApp("motd", 40);
  for (auto it = run.server.trace.events.rbegin(); it != run.server.trace.events.rend();
       ++it) {
    if (it->kind == TraceEvent::Kind::kResponse) {
      run.server.trace.events.erase(std::next(it).base());
      break;
    }
  }
  ExpectStreamMatchesOneShot(run);
}

// --- Checkpoint / resume ---------------------------------------------------

TEST(EpochCheckpointTest, ResumeFromMidStreamReachesTheSameVerdict) {
  HonestRun run = RunApp("stacks", 60);
  AuditResult oneshot = AuditOnly(run.app, run.server.trace, run.server.advice,
                                  VerifierConfig{IsolationLevel::kSerializable, 1});
  ASSERT_TRUE(oneshot.accepted) << oneshot.reason;

  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  ASSERT_GE(slices.segments.size(), 4u);

  AuditSession first(*run.app.program, config, kEpochSize);
  size_t half = slices.segments.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(first.FeedEpoch(slices.segments[i]));
  }
  std::vector<uint8_t> checkpoint = first.SaveCheckpoint();
  // `first` is abandoned here — the process-kill in the resume story.

  std::string error;
  auto resumed = AuditSession::Restore(*run.app.program, config, checkpoint, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->next_epoch(), half);
  EXPECT_EQ(resumed->epoch_requests(), kEpochSize);
  // The resumed stream pulls every epoch again and feeds only the rest.
  const size_t total = slices.segments.size();
  SliceSource source(std::move(slices));
  StreamAuditResult finished = RunStreamedAudit(resumed.get(), &source);
  EXPECT_EQ(finished.epochs, total);
  ExpectSameOutcome(oneshot, finished.audit, "resumed");
}

TEST(EpochCheckpointTest, CheckpointAfterEveryEpochStillMatches) {
  // The torture variant: serialize + restore between every pair of epochs.
  // Any carry field missing from the checkpoint shows up here as a verdict
  // or diagnostics divergence.
  HonestRun run = RunApp("stacks", 60);
  AuditResult oneshot = AuditOnly(run.app, run.server.trace, run.server.advice,
                                  VerifierConfig{IsolationLevel::kSerializable, 1});

  const uint64_t kEpochSize = 7;
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, kEpochSize);
  auto session = std::make_unique<AuditSession>(*run.app.program, config, kEpochSize);
  for (const EpochSegment& segment : slices.segments) {
    session->FeedEpoch(segment);
    std::string error;
    auto reloaded =
        AuditSession::Restore(*run.app.program, config, session->SaveCheckpoint(), &error);
    ASSERT_NE(reloaded, nullptr) << error;
    session = std::move(reloaded);
  }
  AuditResult finished = session->Finish();
  ExpectSameOutcome(oneshot, finished, "checkpoint-every-epoch");
}

TEST(EpochCheckpointTest, RestoreRefusesMalformedBytes) {
  HonestRun run = RunApp("motd", 10);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  std::string error;
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, {}, &error), nullptr);
  EXPECT_FALSE(error.empty());

  std::vector<uint8_t> garbage = {'K', 'S', 'E', 'G', 1, 42, 42, 42};
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, garbage, &error), nullptr);
  EXPECT_FALSE(error.empty());

  // A valid checkpoint with any single truncation must also be refused.
  AuditSession session(*run.app.program, config, 3);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 3);
  ASSERT_FALSE(slices.segments.empty());
  session.FeedEpoch(slices.segments[0]);
  std::vector<uint8_t> checkpoint = session.SaveCheckpoint();
  std::vector<uint8_t> truncated(checkpoint.begin(), checkpoint.end() - 1);
  error.clear();
  EXPECT_EQ(AuditSession::Restore(*run.app.program, config, truncated, &error), nullptr);
  EXPECT_FALSE(error.empty());

  // A well-framed checkpoint of another format version (the leading payload
  // varint; the current version is 3) must be refused, not misparsed.
  std::unique_ptr<SegmentReader> reader =
      SegmentReader::FromBytes(checkpoint.data(), checkpoint.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  SegmentRecord record;
  ASSERT_TRUE(reader->Next(&record));
  ASSERT_EQ(record.payload[0], 3u);
  for (uint8_t version : {2, 4}) {
    record.payload[0] = version;
    SegmentWriter other;
    other.Append(SegmentKind::kCheckpoint, record.epoch, record.payload);
    error.clear();
    EXPECT_EQ(AuditSession::Restore(*run.app.program, config, other.Take(), &error), nullptr);
    EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
  }
}

TEST(EpochCheckpointTest, RestoreRefusesIsolationMismatch) {
  HonestRun run = RunApp("stacks", 20);
  VerifierConfig ser{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, ser, 5);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 5);
  ASSERT_FALSE(slices.segments.empty());
  session.FeedEpoch(slices.segments[0]);
  std::vector<uint8_t> checkpoint = session.SaveCheckpoint();

  VerifierConfig rc{IsolationLevel::kReadCommitted, 1};
  std::string error;
  EXPECT_EQ(AuditSession::Restore(*run.app.program, rc, checkpoint, &error), nullptr);
  EXPECT_NE(error.find("isolation"), std::string::npos) << error;
}

TEST(EpochStreamTest, OutOfOrderSegmentRejects) {
  HonestRun run = RunApp("motd", 40);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 2u);
  AuditSession session(*run.app.program, config, 7);
  EXPECT_FALSE(session.FeedEpoch(slices.segments[1]));
  EXPECT_TRUE(session.decided());
  AuditResult result = session.Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_NE(result.reason.find("out of order"), std::string::npos) << result.reason;
}

// --- Stream order: decode, feed, drop ----------------------------------------

// Flips the last payload byte of the advice frame for `epoch`, so that frame
// fails its CRC (KAR-SEG-001) while every earlier frame still decodes.
void BreakAdviceFrame(std::vector<uint8_t>* container, uint64_t epoch) {
  std::string error;
  std::unique_ptr<SegmentReader> reader =
      SegmentReader::FromBytes(container->data(), container->size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<uint64_t> ends;  // One past each frame's last byte.
  SegmentRecord record;
  while (reader->Next(&record)) {
    if (!ends.empty()) {
      ends.back() = record.offset;
    }
    ends.push_back(container->size());
  }
  ASSERT_LT(epoch, ends.size());
  (*container)[ends[epoch] - 1] ^= 0xFF;
}

// Counts pulls and remembers the thread that made them.
class CountingSource : public EpochSource {
 public:
  explicit CountingSource(EpochSource* inner, uint64_t throw_at = UINT64_MAX)
      : inner_(inner), throw_at_(throw_at) {}

  int Next(EpochSegment* out, std::vector<LintDiagnostic>* diags) override {
    puller_ = std::this_thread::get_id();
    if (pulls_ == throw_at_) {
      throw std::runtime_error("decode failed at epoch " + std::to_string(pulls_));
    }
    ++pulls_;
    return inner_->Next(out, diags);
  }

  uint64_t pulls() const { return pulls_; }
  std::thread::id puller() const { return puller_; }

 private:
  EpochSource* inner_;
  uint64_t throw_at_;
  uint64_t pulls_ = 0;
  std::thread::id puller_;
};

// A lint-rejectable epoch 1 ahead of a CRC-broken frame: the first finding in
// stream order wins, for the standalone check and the audit alike, whether
// the broken frame is the one the decode thread reads ahead (epoch 2) or a
// later one (epoch 3).
TEST(EpochStreamOrderTest, FirstFindingInStreamOrderWins) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 5u);
  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  const std::vector<uint8_t> honest_advice = EncodeAdviceSegments(slices);
  ASSERT_FALSE(slices.segments[1].advice.tags.empty());
  slices.segments[1].advice.tags.erase(slices.segments[1].advice.tags.begin());
  const std::vector<uint8_t> linted_advice = EncodeAdviceSegments(slices);
  const VerifierConfig config{IsolationLevel::kSerializable, 1};

  for (uint64_t broken : {uint64_t{2}, uint64_t{3}}) {
    const std::string context = "broken frame at epoch " + std::to_string(broken);
    // The broken frame alone is a file-layer rejection.
    std::vector<uint8_t> advice_bytes = honest_advice;
    BreakAdviceFrame(&advice_bytes, broken);
    EXPECT_EQ(CheckSegmentStreams(trace_bytes, advice_bytes, 7).rule, kKarSeg001) << context;
    StreamAuditResult audited = AuditSegments(run.app, trace_bytes, advice_bytes, config, 7);
    EXPECT_FALSE(audited.audit.accepted) << context;
    EXPECT_EQ(audited.audit.rule, kKarSeg001) << context;
    EXPECT_EQ(audited.audit.reason.rfind("segment stream: ", 0), 0u) << audited.audit.reason;
    EXPECT_EQ(audited.epochs, broken) << context;

    // Behind the epoch-1 lint finding it is never reported.
    advice_bytes = linted_advice;
    BreakAdviceFrame(&advice_bytes, broken);
    CheckResult check = CheckSegmentStreams(trace_bytes, advice_bytes, 7);
    audited = AuditSegments(run.app, trace_bytes, advice_bytes, config, 7);
    EXPECT_FALSE(check.ok) << context;
    EXPECT_EQ(check.rule, "KAR-ADV-014") << context << ": " << check.reason;
    EXPECT_FALSE(audited.audit.accepted) << context;
    EXPECT_EQ(audited.audit.rule, check.rule) << context << ": " << audited.audit.reason;
    EXPECT_EQ(audited.audit.reason, check.reason) << context;
    EXPECT_EQ(audited.epochs, 2u) << context;
  }
}

// A rejection at epoch j stops the decode thread: it reads at most one epoch
// ahead (j+1) and never pulls past it.
TEST(EpochStreamOrderTest, RejectionStopsDecodingAfterTheNextEpoch) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 6u);
  const uint64_t rejected_at = 2;
  slices.segments[rejected_at].advice.tags.erase(
      slices.segments[rejected_at].advice.tags.begin());
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  SliceSource slice_source(std::move(slices));
  CountingSource source(&slice_source);
  StreamAuditResult result = RunStreamedAudit(&session, &source);
  EXPECT_FALSE(result.audit.accepted);
  EXPECT_EQ(result.audit.rule, "KAR-ADV-014") << result.audit.reason;
  EXPECT_EQ(result.epochs, rejected_at + 1);
  EXPECT_EQ(session.next_epoch(), rejected_at + 1);
  EXPECT_GE(source.pulls(), rejected_at + 1);
  EXPECT_LE(source.pulls(), rejected_at + 2);
}

// The source runs on the helper thread; what it throws is rethrown on the
// caller's, after the epochs before it were fed.
TEST(EpochStreamOrderTest, DecodeExceptionSurfacesOnTheCallerThread) {
  HonestRun run = RunApp("motd", 40);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  SliceSource slice_source(std::move(slices));
  CountingSource source(&slice_source, /*throw_at=*/2);
  bool caught = false;
  try {
    RunStreamedAudit(&session, &source);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "decode failed at epoch 2");
  }
  EXPECT_TRUE(caught);
  EXPECT_NE(source.puller(), std::this_thread::get_id());
  EXPECT_EQ(session.next_epoch(), 2u);
}

// A resumed audit still decodes and file-checks the epochs its checkpoint
// covers: a broken frame there rejects even though it is never fed.
TEST(EpochStreamOrderTest, ResumeFileChecksTheCoveredEpochs) {
  HonestRun run = RunApp("stacks", 60);
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession first(*run.app.program, config, 7);
  ASSERT_TRUE(first.FeedEpoch(slices.segments[0]));
  ASSERT_TRUE(first.FeedEpoch(slices.segments[1]));
  std::vector<uint8_t> checkpoint = first.SaveCheckpoint();

  const std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices);
  BreakAdviceFrame(&advice_bytes, 0);
  std::string error;
  auto resumed = AuditSession::Restore(*run.app.program, config, checkpoint, &error);
  ASSERT_NE(resumed, nullptr) << error;
  PairedSegmentCursor cursor(trace_bytes, advice_bytes);
  StreamAuditResult result = RunStreamedAudit(resumed.get(), &cursor);
  EXPECT_FALSE(result.audit.accepted);
  EXPECT_EQ(result.audit.rule, kKarSeg001) << result.audit.reason;
  EXPECT_EQ(resumed->next_epoch(), 2u);
}

}  // namespace
}  // namespace karousos
