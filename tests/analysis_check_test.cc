// Streaming model checker tests: every checked-in KAR-SEG fixture must be
// rejected under its own rule, clean streams must check clean at every epoch
// size, the fast-reject pre-screen must stop a poisoned stream at the epoch
// where the defect lands, and the pre-screen's carry state must survive a
// checkpoint round trip.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/common/file_io.h"
#include "src/verifier/session.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

// The fixture run's shape (tools/make_lint_fixture.cc): stacks, 40 requests,
// epoch size 7.
constexpr uint64_t kFixtureEpochSize = 7;

std::vector<uint8_t> ReadFixture(const std::string& name) {
  std::string path = std::string(KAROUSOS_FIXTURE_DIR) + "/seg/" + name;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << "missing fixture " << path;
  return bytes ? std::vector<uint8_t>(bytes->begin(), bytes->end()) : std::vector<uint8_t>{};
}

struct HonestRun {
  AppSpec app;
  ServerRunResult server;
};

HonestRun RunStacks(size_t requests = 63, int concurrency = 6) {
  HonestRun run{MakeStacksApp(), {}};
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = requests;
  wl.seed = 7;
  ServerConfig config;
  config.concurrency = concurrency;
  Server server(*run.app.program, config);
  run.server = server.Run(GenerateWorkload(wl));
  return run;
}

// --- Per-rule fixtures ------------------------------------------------------

class SegRuleFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(SegRuleFixture, CheckerReportsThePlantedRule) {
  const std::string rule = GetParam();
  std::string stem = rule;
  for (char& c : stem) {
    c = static_cast<char>(std::tolower(c));
  }
  std::vector<uint8_t> trace_bytes = ReadFixture(stem + ".trace.kseg");
  std::vector<uint8_t> advice_bytes = ReadFixture(stem + ".advice.kseg");
  ASSERT_FALSE(trace_bytes.empty());
  ASSERT_FALSE(advice_bytes.empty());

  CheckResult check = CheckSegmentStreams(trace_bytes, advice_bytes, kFixtureEpochSize);
  EXPECT_FALSE(check.ok) << "fixture for " << rule << " checked clean";
  EXPECT_EQ(check.rule, rule) << check.reason;
  EXPECT_FALSE(check.reason.empty());

  // The full audit must reject too, and where it names a rule it must be the
  // same one — the pre-screen fires before any replay could decide otherwise.
  StreamAuditResult audited =
      AuditSegments(MakeStacksApp(), trace_bytes, advice_bytes,
                    VerifierConfig{IsolationLevel::kSerializable, 1}, kFixtureEpochSize);
  EXPECT_FALSE(audited.audit.accepted) << "audit accepted the " << rule << " fixture";
  if (!audited.audit.rule.empty()) {
    EXPECT_EQ(audited.audit.rule, rule) << audited.audit.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, SegRuleFixture,
                         ::testing::Values("KAR-SEG-001", "KAR-SEG-002", "KAR-SEG-003",
                                           "KAR-SEG-004", "KAR-SEG-005", "KAR-SEG-006",
                                           "KAR-SEG-007", "KAR-SEG-008", "KAR-SEG-009",
                                           "KAR-SEG-010"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Clean streams ----------------------------------------------------------

TEST(SegmentCheckTest, CleanStreamChecksCleanAtEveryEpochSize) {
  HonestRun run = RunStacks();
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{7}, uint64_t{0}}) {
    CheckResult r = CheckRun(run.server.trace, run.server.advice, epoch_size);
    EXPECT_TRUE(r.ok) << "epoch size " << epoch_size << ": " << r.reason;
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.rule, "");
  }
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  CheckResult r = CheckSegmentStreams(EncodeTraceSegments(slices), EncodeAdviceSegments(slices), 7);
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.epochs, slices.segments.size());
  EXPECT_EQ(r.frames, 2 * slices.segments.size());
}

// --- Fast reject mid-stream -------------------------------------------------

// True when a finish-time pre-screen rule reported: content seen early,
// imports never confirmed, prec cycles across epochs. Those judge the whole
// stream, epochs never fed included.
bool HasFinishTimeFinding(const std::vector<LintDiagnostic>& diagnostics) {
  for (const LintDiagnostic& d : diagnostics) {
    for (const char* finish_only :
         {"appeared early in epoch", "beyond the final epoch", "cyclic across epochs"}) {
      if (d.message.find(finish_only) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

// A cross-epoch defect planted into epoch 2 must fix the verdict the moment
// epoch 2 is fed — the pre-screen decides before that epoch re-executes, and
// later epochs are never consumed. Finishing there judges only what was fed:
// the honest forward imports into later epochs are no finding.
TEST(SegmentCheckTest, FastRejectDecidesAtThePoisonedEpoch) {
  HonestRun run = RunStacks();
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[2].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());

  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  EXPECT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_TRUE(session.FeedEpoch(slices.segments[1]));
  EXPECT_FALSE(session.FeedEpoch(slices.segments[2]));  // Decided here.
  EXPECT_TRUE(session.decided());
  AuditResult result = session.Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.rule, kKarSeg005) << result.reason;
  EXPECT_FALSE(HasFinishTimeFinding(result.diagnostics));

  // The standalone checker agrees, rule for rule.
  SegmentChecker checker(7);
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[0]));
  EXPECT_TRUE(checker.CheckEpoch(slices.segments[1]));
  EXPECT_FALSE(checker.CheckEpoch(slices.segments[2]));
  CheckResult check = checker.Finish();
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.rule, kKarSeg005);
  EXPECT_FALSE(HasFinishTimeFinding(check.diagnostics));
}

// --- Checkpoint round trip --------------------------------------------------

// The pre-screen's cross-epoch state must survive SaveCheckpoint/Restore: a
// claim first made in epoch 0 must still be remembered by the restored
// session when a later epoch re-claims it.
TEST(SegmentCheckTest, CheckpointPreservesCarriedClaims) {
  HonestRun run = RunStacks();
  EpochSlices slices = SliceRun(run.server.trace, run.server.advice, 7);
  ASSERT_GE(slices.segments.size(), 4u);
  const size_t last = slices.segments.size() - 1;
  ASSERT_FALSE(slices.segments[0].advice.opcounts.empty());
  slices.segments[last].advice.opcounts.insert(*slices.segments[0].advice.opcounts.begin());

  VerifierConfig config{IsolationLevel::kSerializable, 1};
  AuditSession session(*run.app.program, config, 7);
  EXPECT_TRUE(session.FeedEpoch(slices.segments[0]));
  EXPECT_TRUE(session.FeedEpoch(slices.segments[1]));
  std::string error;
  auto restored =
      AuditSession::Restore(*run.app.program, config, session.SaveCheckpoint(), &error);
  ASSERT_NE(restored, nullptr) << error;
  for (size_t i = 2; i <= last; ++i) {
    if (!restored->FeedEpoch(slices.segments[i])) {
      break;
    }
  }
  AuditResult result = restored->Finish();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.rule, kKarSeg005) << result.reason;
}

}  // namespace
}  // namespace karousos
