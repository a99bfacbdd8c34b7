// End-to-end Completeness (§2.1): for every application, workload, degree of
// concurrency, collection mode, and isolation level in the matrix, an honest
// server's trace + advice must be ACCEPTED by the verifier.
#include <gtest/gtest.h>

#include "src/audit/audit.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct MatrixParam {
  std::string app;
  WorkloadKind kind;
  int concurrency;
  CollectMode mode;
  IsolationLevel isolation;
};

std::string ParamName(const testing::TestParamInfo<MatrixParam>& info) {
  const MatrixParam& p = info.param;
  std::string name = p.app;
  switch (p.kind) {
    case WorkloadKind::kReadHeavy:
      name += "_reads";
      break;
    case WorkloadKind::kWriteHeavy:
      name += "_writes";
      break;
    case WorkloadKind::kMixed:
      name += "_mixed";
      break;
    case WorkloadKind::kWikiMix:
      name += "_wikimix";
      break;
  }
  name += "_c" + std::to_string(p.concurrency);
  name += p.mode == CollectMode::kKarousos ? "_karousos" : "_orochi";
  switch (p.isolation) {
    case IsolationLevel::kSerializable:
      name += "_ser";
      break;
    case IsolationLevel::kReadCommitted:
      name += "_rc";
      break;
    case IsolationLevel::kReadUncommitted:
      name += "_ru";
      break;
  }
  return name;
}

class CompletenessTest : public testing::TestWithParam<MatrixParam> {};

TEST_P(CompletenessTest, HonestServerIsAccepted) {
  const MatrixParam& p = GetParam();
  AppSpec app = MakeApp(p.app).value();
  WorkloadConfig wl;
  wl.app = p.app;
  wl.kind = p.kind;
  wl.requests = 120;
  wl.seed = 42;
  wl.connections = p.concurrency;
  ServerConfig config;
  config.mode = p.mode;
  config.isolation = p.isolation;
  config.concurrency = p.concurrency;
  config.seed = 99;
  AuditPipelineResult result = RunAndAudit(app, GenerateWorkload(wl), config);
  EXPECT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_EQ(result.audit.stats.group_lane_total, 120u);
  EXPECT_GE(result.audit.stats.groups, 1u);
  EXPECT_LE(result.audit.stats.groups, 120u);
}

std::vector<MatrixParam> BuildMatrix() {
  std::vector<MatrixParam> params;
  for (const char* app : {"motd", "stacks", "wiki"}) {
    std::vector<WorkloadKind> kinds;
    if (std::string(app) == "wiki") {
      kinds = {WorkloadKind::kWikiMix};
    } else {
      kinds = {WorkloadKind::kReadHeavy, WorkloadKind::kWriteHeavy, WorkloadKind::kMixed};
    }
    for (WorkloadKind kind : kinds) {
      for (int concurrency : {1, 4, 16}) {
        for (CollectMode mode : {CollectMode::kKarousos, CollectMode::kOrochi}) {
          params.push_back({app, kind, concurrency, mode, IsolationLevel::kSerializable});
        }
      }
    }
  }
  // Weaker isolation levels, exercised through the transactional apps.
  for (const char* app : {"stacks", "wiki"}) {
    for (IsolationLevel level :
         {IsolationLevel::kReadCommitted, IsolationLevel::kReadUncommitted}) {
      params.push_back({app,
                        std::string(app) == "wiki" ? WorkloadKind::kWikiMix
                                                   : WorkloadKind::kMixed,
                        8, CollectMode::kKarousos, level});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CompletenessTest, testing::ValuesIn(BuildMatrix()), ParamName);

TEST(AuditBasicsTest, BatchingDeduplicatesWork) {
  // 60 identical-control-flow MOTD gets: one re-execution group, one handler
  // body execution for all 60 lanes.
  AppSpec app = MakeMotdApp();
  std::vector<Value> inputs(60, MakeMap({{"op", "get"}, {"day", "mon"}}));
  ServerConfig config;
  config.concurrency = 4;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_EQ(result.audit.stats.groups, 1u);
  EXPECT_EQ(result.audit.stats.handler_executions, 1u);
  EXPECT_EQ(result.audit.stats.handler_lanes, 60u);
}

TEST(AuditBasicsTest, KarousosGroupsReorderedTreesTogether) {
  // Two list requests whose child handlers interleave differently across
  // requests still share a Karousos group (same tree), while Orochi-JS may
  // split them. With sequential execution both group identically.
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs = {
      MakeMap({{"op", "submit"}, {"dump", "a"}}),
      MakeMap({{"op", "submit"}, {"dump", "b"}}),
      MakeMap({{"op", "list"}}),
      MakeMap({{"op", "list"}}),
  };
  ServerConfig config;
  config.concurrency = 1;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  // The two lists induce the same tree (2 digests -> 2 children each).
  EXPECT_EQ(result.server.advice.tags.at(3), result.server.advice.tags.at(4));
}

TEST(AuditBasicsTest, EmptyTraceIsAccepted) {
  AppSpec app = MakeMotdApp();
  ServerConfig config;
  AuditPipelineResult result = RunAndAudit(app, {}, config);
  EXPECT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_EQ(result.audit.stats.groups, 0u);
}

TEST(AuditBasicsTest, AdviceSurvivesWireRoundTripAndStillVerifies) {
  AppSpec app = MakeWikiApp();
  WorkloadConfig wl;
  wl.app = "wiki";
  wl.kind = WorkloadKind::kWikiMix;
  wl.requests = 80;
  wl.connections = 8;
  ServerConfig config;
  config.concurrency = 8;
  Server server(*app.program, config);
  ServerRunResult run = server.Run(GenerateWorkload(wl));

  ByteWriter writer;
  run.advice.Serialize(&writer);
  ByteReader reader(writer.bytes());
  auto decoded = Advice::Deserialize(&reader);
  ASSERT_TRUE(decoded.has_value());

  AuditResult audit = AuditOnly(app, run.trace, *decoded, config.isolation);
  EXPECT_TRUE(audit.accepted) << audit.reason;
}

}  // namespace
}  // namespace karousos
