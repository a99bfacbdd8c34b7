// Re-execution mechanics: multi-handler transactions, conflict-marker
// handling, per-request variables in groups, sibling reordering, and the
// scheduler's reordering model.
#include <gtest/gtest.h>

#include "src/apps/app_util.h"
#include "src/audit/audit.h"

namespace karousos {
namespace {

// A transaction split across two handlers (TxStart+PUT in the request
// handler, GET+commit in the child), exercising TxResume and the
// position-tracking of transaction logs across handler boundaries.
AppSpec MakeSplitTxApp() {
  auto program = std::make_shared<Program>();
  program->DefineFunction("split_head", [](Ctx& ctx) {
    MultiValue key = MvField(ctx.Input(), "key");
    TxHandle tx = ctx.TxStart();
    bool ok = ctx.TxPut(tx, key, MvField(ctx.Input(), "value"));
    if (!ctx.Branch(MultiValue(ok))) {
      ctx.TxAbort(tx);
      ctx.Respond(MvMakeMap({{"retry", MultiValue(true)}}));
      return;
    }
    ctx.Emit("split_finish", MvMakeMap({{"tid", ctx.TxIdValue(tx)}, {"key", key}}));
  });
  program->DefineFunction("split_finish", [](Ctx& ctx) {
    TxHandle tx = ctx.TxResume(MvField(ctx.Input(), "tid"));
    TxGetResult got = ctx.TxGet(tx, MvField(ctx.Input(), "key"));
    ctx.Branch(MultiValue(got.conflict));
    ctx.Branch(MultiValue(ctx.TxCommit(tx)));
    ctx.Respond(MvMakeMap({{"stored", got.value}}));
  });
  program->SetInit([](Ctx& ctx) {
    ctx.RegisterHandler(kRequestEventName, "split_head");
    ctx.RegisterHandler("split_finish", "split_finish");
  });
  return AppSpec{"splittx", std::move(program)};
}

TEST(ReexecTest, TransactionSplitAcrossHandlersReplays) {
  AppSpec app = MakeSplitTxApp();
  std::vector<Value> inputs;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(MakeMap({{"key", Value("k" + std::to_string(i % 5))},
                              {"value", Value(int64_t{i})}}));
  }
  for (int concurrency : {1, 6}) {
    ServerConfig config;
    config.concurrency = concurrency;
    AuditPipelineResult result = RunAndAudit(app, inputs, config);
    EXPECT_TRUE(result.audit.accepted)
        << "concurrency " << concurrency << ": " << result.audit.reason;
  }
}

TEST(ReexecTest, SplitTransactionsConflictAndAuditCleanly) {
  // All requests write the same key: X-lock windows span the two handlers,
  // so concurrent requests hit no-wait conflicts, take the retry path, and
  // the audit must still accept (conflict markers replayed from nondet).
  AppSpec app = MakeSplitTxApp();
  std::vector<Value> inputs(20, MakeMap({{"key", "hot"}, {"value", 1}}));
  ServerConfig config;
  config.concurrency = 10;
  config.seed = 4;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_GT(result.server.conflicts, 0u) << "expected lock conflicts under contention";
  int retries = 0;
  for (RequestId rid : result.server.trace.RequestIds()) {
    retries += result.server.trace.Response(rid)->Field("retry").Truthy();
  }
  EXPECT_GT(retries, 0);
}

TEST(ReexecTest, SchedulerReordersSiblingsOnlyUnderConcurrency) {
  // The stacks list fans out children; at concurrency 1 the dispatch loop is
  // FIFO so two identical lists produce identical Orochi sequence tags; under
  // concurrency the sequences scramble while the Karousos tree tags can
  // still coincide.
  auto build_inputs = [] {
    std::vector<Value> inputs;
    for (int i = 0; i < 6; ++i) {
      inputs.push_back(
          MakeMap({{"op", "submit"}, {"dump", Value("d" + std::to_string(i))}}));
    }
    for (int i = 0; i < 10; ++i) {
      inputs.push_back(MakeMap({{"op", "list"}}));
    }
    return inputs;
  };
  // Sequential: every list behaves identically in both tagging schemes.
  {
    AppSpec app = MakeStacksApp();
    ServerConfig config;
    config.mode = CollectMode::kOrochi;
    config.concurrency = 1;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(build_inputs());
    std::set<uint64_t> list_tags;
    for (RequestId rid = 7; rid <= 16; ++rid) {
      list_tags.insert(run.advice.tags.at(rid));
    }
    EXPECT_EQ(list_tags.size(), 1u) << "sequential lists must share one sequence tag";
  }
  // Concurrent: Orochi sequence tags fragment more than Karousos tree tags.
  size_t karousos_tags = 0;
  size_t orochi_tags = 0;
  for (CollectMode mode : {CollectMode::kKarousos, CollectMode::kOrochi}) {
    AppSpec app = MakeStacksApp();
    ServerConfig config;
    config.mode = mode;
    config.concurrency = 8;
    config.seed = 13;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(build_inputs());
    std::set<uint64_t> list_tags;
    for (RequestId rid = 7; rid <= 16; ++rid) {
      list_tags.insert(run.advice.tags.at(rid));
    }
    (mode == CollectMode::kKarousos ? karousos_tags : orochi_tags) = list_tags.size();
  }
  EXPECT_LE(karousos_tags, orochi_tags)
      << "tree tags must never fragment more than sequence tags";
}

TEST(ReexecTest, ServerSchedulingIsDeterministicPerSeed) {
  auto run_once = [](uint64_t seed) {
    AppSpec app = MakeWikiApp();
    std::vector<Value> inputs;
    inputs.push_back(MakeMap(
        {{"op", "create_page"}, {"id", "p"}, {"title", "t"}, {"content", "c"}, {"conn", 0}}));
    for (int i = 0; i < 20; ++i) {
      inputs.push_back(MakeMap({{"op", "render"}, {"page", "p"}, {"conn", i % 4}}));
    }
    ServerConfig config;
    config.concurrency = 4;
    config.seed = seed;
    Server server(*app.program, config);
    return server.Run(inputs).trace;
  };
  Trace a = run_once(9);
  Trace b = run_once(9);
  Trace c = run_once(10);
  ASSERT_EQ(a.events.size(), b.events.size());
  bool same_seed_equal = true;
  for (size_t i = 0; i < a.events.size(); ++i) {
    same_seed_equal &= a.events[i].rid == b.events[i].rid &&
                       a.events[i].payload == b.events[i].payload;
  }
  EXPECT_TRUE(same_seed_equal);
  bool different_seed_differs = c.events.size() != a.events.size();
  for (size_t i = 0; !different_seed_differs && i < a.events.size(); ++i) {
    different_seed_differs = !(a.events[i].rid == c.events[i].rid);
  }
  EXPECT_TRUE(different_seed_differs) << "different seeds should reorder the schedule";
}

TEST(ReexecTest, PerRequestVariablesStayLanePrivate) {
  // Two grouped list requests each own per-request accumulators; their lanes
  // must not bleed into each other. (If they did, responses would mismatch.)
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs = {
      MakeMap({{"op", "submit"}, {"dump", "alpha"}}),
      MakeMap({{"op", "submit"}, {"dump", "beta"}}),
      MakeMap({{"op", "list"}}),
      MakeMap({{"op", "list"}}),
  };
  ServerConfig config;
  config.concurrency = 1;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  // Both lists were batched into one group (identical trees, sequential).
  EXPECT_EQ(result.server.advice.tags.at(3), result.server.advice.tags.at(4));
}

TEST(ReexecTest, GroupingIdenticalRequestsMaximizesDedup) {
  AppSpec app = MakeSplitTxApp();
  std::vector<Value> inputs(30, MakeMap({{"key", "same"}, {"value", 7}}));
  ServerConfig config;
  config.concurrency = 1;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  EXPECT_EQ(result.audit.stats.groups, 1u);
  // Two handlers per request, executed once for the whole group.
  EXPECT_EQ(result.audit.stats.handler_executions, 2u);
  EXPECT_EQ(result.audit.stats.handler_lanes, 60u);
}

// Re-execution reads of a logged variable copy the dictating write's value
// into each lane. Copies share the write's node, so lanes that one write
// dictates hold one map, however large it is.
std::vector<MultiValue>* g_observed_reads = nullptr;

AppSpec MakeSharedMapApp() {
  auto program = std::make_shared<Program>();
  program->DefineFunction("shared_map", [](Ctx& ctx) {
    MultiValue in = ctx.Input();
    MultiValue map = ctx.ReadVar("days", VarScope::kGlobal);
    if (ctx.Branch(MvEq(MvField(in, "op"), MultiValue("set")))) {
      ctx.WriteVar("days", VarScope::kGlobal,
                   MvMapSet(map, MvField(in, "day"), MvField(in, "msg")));
      ctx.Respond(MultiValue(true));
      return;
    }
    if (!map.collapsed() && g_observed_reads != nullptr) {
      g_observed_reads->push_back(map);
    }
    ctx.Respond(MvMapGet(map, MvField(in, "day")));
  });
  program->SetInit([](Ctx& ctx) {
    ctx.DeclareVar("days", VarScope::kGlobal);
    ctx.WriteVar("days", VarScope::kGlobal, MultiValue(Value(ValueMap{})));
    ctx.RegisterHandler(kRequestEventName, "shared_map");
  });
  return AppSpec{"shared_map", std::move(program)};
}

TEST(ReexecTest, LanesDictatedByOneWriteShareItsNode) {
  AppSpec app = MakeSharedMapApp();
  std::vector<Value> inputs;
  for (int round = 0; round < 3; ++round) {
    inputs.push_back(MakeMap({{"op", "set"},
                              {"day", "d" + std::to_string(round)},
                              {"msg", std::string(100, static_cast<char>('a' + round))}}));
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(MakeMap({{"op", "get"}, {"day", "d0"}}));
    }
  }
  ServerConfig config;
  config.concurrency = 1;
  std::vector<MultiValue> observed;
  g_observed_reads = &observed;
  AuditPipelineResult result = RunAndAudit(app, inputs, config);
  g_observed_reads = nullptr;
  ASSERT_TRUE(result.audit.accepted) << result.audit.reason;
  // The twelve gets form one group reading three different writes.
  ASSERT_EQ(observed.size(), 1u);
  const MultiValue& lanes = observed[0];
  ASSERT_EQ(lanes.lane_count_or_one(), 12u);
  size_t shared_pairs = 0;
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = i + 1; j < 12; ++j) {
      if (lanes.Lane(i) == lanes.Lane(j)) {
        EXPECT_EQ(&lanes.Lane(i).AsMap(), &lanes.Lane(j).AsMap()) << i << "," << j;
        ++shared_pairs;
      }
    }
  }
  EXPECT_EQ(shared_pairs, 3u * 6u);  // Three writes, four lanes each.
}

}  // namespace
}  // namespace karousos
