// Shape regressions: the qualitative claims of Figures 6-12 and ablations
// A1/A2 (see EXPERIMENTS.md), asserted at small scale so CI catches any change
// that would break the reproduction. These compare deterministic counters
// (groups, handler executions against lanes, advice bytes, var-log entries),
// never times.
#include <gtest/gtest.h>

#include "src/audit/audit.h"
#include "src/workload/workload.h"
#include "tests/full_value_advice.h"

namespace karousos {
namespace {

ServerRunResult Serve(const std::string& app_name, WorkloadKind kind, CollectMode mode,
                      int concurrency, size_t requests = 200) {
  AppSpec app = MakeApp(app_name).value();
  WorkloadConfig wl;
  wl.app = app_name;
  wl.kind = kind;
  wl.requests = requests;
  wl.connections = concurrency;
  ServerConfig config;
  config.mode = mode;
  config.concurrency = concurrency;
  config.seed = 21;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

size_t AdviceBytes(const ServerRunResult& run) { return run.advice.MeasureSize().total; }

struct ModeRun {
  ServerRunResult server;
  AuditResult audit;
};

ModeRun RunMode(const std::string& app_name, WorkloadKind kind, CollectMode mode,
                int concurrency, size_t requests = 200) {
  ModeRun run;
  run.server = Serve(app_name, kind, mode, concurrency, requests);
  run.audit = AuditOnly(MakeApp(app_name).value(), run.server.trace, run.server.advice,
                        IsolationLevel::kSerializable);
  return run;
}

TEST(FigureShapesTest, MotdAdviceIdenticalAcrossSystems) {
  // Figures 8-10, MOTD: every access is R-concurrent, so Karousos's advice is
  // byte-for-byte as large as Orochi-JS's under every workload kind, and
  // R-ordered logging saves no var-log entry (ablation A2). Get and set are
  // the only two handler trees, so both taggings give 2 groups (ablation A1).
  for (WorkloadKind kind :
       {WorkloadKind::kWriteHeavy, WorkloadKind::kMixed, WorkloadKind::kReadHeavy}) {
    SCOPED_TRACE(WorkloadKindName(kind));
    ModeRun k = RunMode("motd", kind, CollectMode::kKarousos, 8);
    ModeRun o = RunMode("motd", kind, CollectMode::kOrochi, 8);
    ASSERT_TRUE(k.audit.accepted) << k.audit.reason;
    ASSERT_TRUE(o.audit.accepted) << o.audit.reason;
    EXPECT_EQ(k.server.advice.var_log_entry_count(), o.server.advice.var_log_entry_count());
    EXPECT_EQ(AdviceBytes(k.server), AdviceBytes(o.server));
    EXPECT_EQ(k.audit.stats.groups, 2u);
    EXPECT_EQ(o.audit.stats.groups, 2u);
  }
}

TEST(FigureShapesTest, StacksKarousosGroupsCoarserUnderConcurrency) {
  // Figures 7, 8 and 11 and ablations A1/A2, stacks: concurrency scrambles
  // sibling completion order, so sequence tags fragment while tree tags
  // survive. Needs enough requests that list fan-outs carry several children
  // (known dumps accumulate). R-ordered logging saves var-log entries and
  // advice bytes; the handler and transaction logs are the same bytes.
  struct Case {
    WorkloadKind kind;
    int concurrency;
    size_t requests;
  };
  for (const Case& c : {Case{WorkloadKind::kReadHeavy, 12, 500},
                        Case{WorkloadKind::kReadHeavy, 15, 600},
                        Case{WorkloadKind::kMixed, 60, 300}}) {
    SCOPED_TRACE(std::string(WorkloadKindName(c.kind)) + " C=" + std::to_string(c.concurrency));
    ModeRun k = RunMode("stacks", c.kind, CollectMode::kKarousos, c.concurrency, c.requests);
    ModeRun o = RunMode("stacks", c.kind, CollectMode::kOrochi, c.concurrency, c.requests);
    ASSERT_TRUE(k.audit.accepted) << k.audit.reason;
    ASSERT_TRUE(o.audit.accepted) << o.audit.reason;
    EXPECT_LT(k.audit.stats.groups, o.audit.stats.groups);
    EXPECT_LT(o.audit.stats.groups, o.audit.stats.group_lane_total);
    EXPECT_LT(k.audit.stats.handler_executions, o.audit.stats.handler_executions);
    // Against the sequential re-executor, which runs every handler once per
    // request: batching runs fewer handler bodies than there are lanes.
    EXPECT_LT(k.audit.stats.handler_executions, k.audit.stats.handler_lanes);
    EXPECT_LT(k.server.advice.var_log_entry_count(), o.server.advice.var_log_entry_count());
    Advice::SizeBreakdown ks = k.server.advice.MeasureSize();
    Advice::SizeBreakdown os = o.server.advice.MeasureSize();
    EXPECT_LT(ks.total, os.total);
    EXPECT_EQ(ks.handler_logs, os.handler_logs);
    EXPECT_EQ(ks.tx_logs, os.tx_logs);
  }
}

TEST(FigureShapesTest, StacksWriteHeavyAdviceGrowsWithConcurrency) {
  // Figure 12, stacks at 90% writes: advice grows with concurrency, on the
  // paper's accounting, where each logged write carries its value in full.
  // The growth came from the logged values: at C=60 the `inflight` map
  // holds more digests. Stored as patches, those values no longer grow, so
  // the stored advice is asserted smaller than the full-value measure.
  ServerRunResult c1 = Serve("stacks", WorkloadKind::kWriteHeavy, CollectMode::kKarousos, 1, 600);
  ServerRunResult c60 =
      Serve("stacks", WorkloadKind::kWriteHeavy, CollectMode::kKarousos, 60, 600);
  const size_t full_c1 = FullValueAdviceBytes(c1.advice).size();
  const size_t full_c60 = FullValueAdviceBytes(c60.advice).size();
  EXPECT_LT(full_c1, full_c60);
  EXPECT_LT(AdviceBytes(c1), full_c1);
  EXPECT_LT(AdviceBytes(c60), full_c60);
}

TEST(FigureShapesTest, WikiKarousosAdviceSmallerAndGrowsWithConcurrency) {
  // Figures 7 and 8 and ablations A1/A2, wiki: R-ordered logging saves bytes
  // and var-log entries, and advice grows with the number of concurrent
  // connections (the pool-stats object). Karousos needs fewer groups than
  // Orochi-JS, both far fewer than one group per request, and it runs fewer
  // handler bodies than the sequential re-executor's one per lane.
  ModeRun k1 = RunMode("wiki", WorkloadKind::kWikiMix, CollectMode::kKarousos, 1);
  ASSERT_TRUE(k1.audit.accepted) << k1.audit.reason;
  size_t fewer_connections_bytes = AdviceBytes(k1.server);
  for (int concurrency : {16, 60}) {
    SCOPED_TRACE("C=" + std::to_string(concurrency));
    ModeRun k = RunMode("wiki", WorkloadKind::kWikiMix, CollectMode::kKarousos, concurrency);
    ModeRun o = RunMode("wiki", WorkloadKind::kWikiMix, CollectMode::kOrochi, concurrency);
    ASSERT_TRUE(k.audit.accepted) << k.audit.reason;
    ASSERT_TRUE(o.audit.accepted) << o.audit.reason;
    const size_t k_bytes = AdviceBytes(k.server);
    EXPECT_LT(k_bytes, AdviceBytes(o.server));
    EXPECT_LT(fewer_connections_bytes, k_bytes);
    fewer_connections_bytes = k_bytes;
    EXPECT_LT(k.server.advice.var_log_entry_count(), o.server.advice.var_log_entry_count());
    EXPECT_LT(k.audit.stats.groups, o.audit.stats.groups);
    EXPECT_LT(o.audit.stats.groups, o.audit.stats.group_lane_total);
    EXPECT_LT(k.audit.stats.handler_executions, k.audit.stats.handler_lanes);
  }
}

TEST(FigureShapesTest, InstrumentationCostsServingTimeNotBehaviour) {
  // Figure 6's premise: the instrumented server does strictly more work.
  // Compare deterministic work proxies rather than wall clock (CI-safe).
  ServerRunResult off = Serve("stacks", WorkloadKind::kMixed, CollectMode::kOff, 8);
  ServerRunResult on = Serve("stacks", WorkloadKind::kMixed, CollectMode::kKarousos, 8);
  // Identical schedules -> identical activations and responses.
  EXPECT_EQ(off.handler_activations, on.handler_activations);
  ASSERT_EQ(off.trace.events.size(), on.trace.events.size());
  for (size_t i = 0; i < off.trace.events.size(); ++i) {
    EXPECT_EQ(off.trace.events[i].payload, on.trace.events[i].payload);
  }
  // Only the instrumented run pays for advice.
  EXPECT_EQ(off.advice_spool_bytes, 0u);
  EXPECT_GT(on.advice_spool_bytes, 0u);
  EXPECT_GT(on.var_log_entries, 0u);
  EXPECT_EQ(off.var_log_entries, 0u);
}

TEST(FigureShapesTest, BatchingDedupScalesWithIdenticalRequests) {
  // The core of Figure 7's wins: verifier work per request falls as groups
  // widen. 200 identical requests -> one group -> one handler execution per
  // handler in the tree.
  AppSpec app = MakeMotdApp();
  std::vector<Value> inputs(200, MakeMap({{"op", "get"}, {"day", "fri"}}));
  ServerConfig config;
  config.concurrency = 8;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_EQ(result.audit.stats.groups, 1u);
  EXPECT_EQ(result.audit.stats.handler_executions, 1u);
  EXPECT_EQ(result.audit.stats.handler_lanes, 200u);
}

}  // namespace
}  // namespace karousos
