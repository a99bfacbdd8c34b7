// The differential scenario harness (ROADMAP item 5): every scenario — an
// honest (app, workload, server schedule) triple — must produce bit-identical
// audit outcomes (verdict, reason, rule, formatted diagnostics) across the
// full configuration matrix:
//
//     threads      {1, 4}
//   × epoch size   {1, 50, 0 = one epoch}
//   × path         {AuditOnly at the default epoch size, AuditStreamed,
//                   AuditSegments}
//
// The scenarios deliberately span the repo's behavioral surface: the
// pathological R-concurrent app (motd), handler trees over the KV store
// (stacks, wiki), hot-key transaction contention with retries (auction, at
// two skew levels and under weak isolation), and the four apps sharing one
// server (mixed). All scenarios are honest: the accept verdict plus empty
// reason/rule/diagnostics must survive every slicing and threading
// choice. (Adversarial equivalence, where reasons may legitimately
// shift at epoch size 1, is epoch_audit_test's job.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/server/rollover.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Scenario {
  const char* name;
  const char* app;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t seed;
  IsolationLevel isolation = IsolationLevel::kSerializable;
  double zipf_theta = 0.9;
  int hot_items = 4;
};

const Scenario kScenarios[] = {
    {"motd_mixed", "motd", WorkloadKind::kMixed, 60, 8, 2},
    {"stacks_mixed", "stacks", WorkloadKind::kMixed, 80, 10, 3},
    {"wiki_mix", "wiki", WorkloadKind::kWikiMix, 80, 10, 4},
    {"auction_hot", "auction", WorkloadKind::kAuctionMix, 120, 12, 7},
    {"auction_extreme_skew", "auction", WorkloadKind::kAuctionMix, 120, 16, 5,
     IsolationLevel::kSerializable, 1.2, 2},
    // Weak isolation audited at its own level: retries and anomaly windows
    // are in the trace, and the verdict must still be slicing-invariant.
    {"auction_read_committed", "auction", WorkloadKind::kAuctionMix, 120, 12, 7,
     IsolationLevel::kReadCommitted},
    {"mixed_apps", "mixed", WorkloadKind::kMixedApps, 160, 10, 3},
};

struct ScenarioRun {
  AppSpec app;
  ServerRunResult server;
};

ScenarioRun Serve(const Scenario& s) {
  ScenarioRun run{MakeApp(s.app).value(), {}};
  WorkloadConfig wl;
  wl.app = s.app;
  wl.kind = s.kind;
  wl.requests = s.requests;
  wl.seed = s.seed;
  wl.connections = s.concurrency;
  wl.zipf_theta = s.zipf_theta;
  wl.hot_items = s.hot_items;
  ServerConfig config;
  config.isolation = s.isolation;
  config.concurrency = s.concurrency;
  config.seed = s.seed;
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

class ScenarioDifferentialTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ScenarioDifferentialTest, OutcomeIsInvariantAcrossTheMatrix) {
  const Scenario& s = GetParam();
  ScenarioRun run = Serve(s);

  // The oracle: the serial audit at the default epoch size (AuditOnly).
  VerifierConfig oracle_config{s.isolation, 1};
  AuditResult oracle = AuditOnly(run.app, run.server.trace, run.server.advice,
                                 oracle_config, &run.server.untracked_accesses);
  ASSERT_TRUE(oracle.accepted) << s.name << ": " << oracle.reason;

  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{50}, uint64_t{0}}) {
    // KSEG containers for this slicing, encoded once per epoch size.
    EpochSlices slices = SliceRun(run.server.trace, run.server.advice, epoch_size);
    std::vector<uint8_t> trace_kseg = EncodeTraceSegments(slices);
    std::vector<uint8_t> advice_kseg = EncodeAdviceSegments(slices);
    for (unsigned threads : {1u, 4u}) {
      VerifierConfig config{s.isolation, threads};
      std::string context = std::string(s.name) +
                            " epoch_size=" + std::to_string(epoch_size) +
                            " threads=" + std::to_string(threads);

      // The default epoch size (this axis's epoch size does not apply).
      AuditResult wrapped = AuditOnly(run.app, run.server.trace, run.server.advice, config,
                                      &run.server.untracked_accesses);
      ExpectSameOutcome(oracle, wrapped, context + " path=default");

      // Streamed from in-memory structures.
      StreamAuditResult streamed =
          AuditStreamed(run.app, run.server.trace, run.server.advice, config,
                        epoch_size, &run.server.untracked_accesses);
      ExpectSameOutcome(oracle, streamed.audit, context + " path=streamed");

      // Streamed from the serialized KSEG containers (the wire artifact).
      StreamAuditResult from_kseg =
          AuditSegments(run.app, trace_kseg, advice_kseg, config, &run.server.untracked_accesses);
      ExpectSameOutcome(oracle, from_kseg.audit, context + " path=segments");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioDifferentialTest,
                         ::testing::ValuesIn(kScenarios),
                         [](const ::testing::TestParamInfo<Scenario>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace karousos
