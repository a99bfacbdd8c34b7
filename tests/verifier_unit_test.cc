// Verifier-internals tests: each preprocessing check of Figures 14-16 is
// exercised with a surgically malformed piece of advice.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/app_util.h"
#include "src/audit/audit.h"
#include "src/kem/varid.h"

namespace karousos {
namespace {

// A two-handler app (request handler emits; child responds) for precise
// control over advice coordinates.
AppSpec MakeChainApp() {
  auto program = std::make_shared<Program>();
  program->DefineFunction("chain_head", [](Ctx& ctx) {
    ctx.Emit("chain_next", ctx.Input());
  });
  program->DefineFunction("chain_tail", [](Ctx& ctx) {
    ctx.Respond(MvMakeMap({{"echo", MvField(ctx.Input(), "x")}}));
  });
  program->SetInit([](Ctx& ctx) {
    ctx.RegisterHandler(kRequestEventName, "chain_head");
    ctx.RegisterHandler("chain_next", "chain_tail");
  });
  return AppSpec{"chain", std::move(program)};
}

struct ChainRun {
  AppSpec app;
  ServerRunResult server;
};

ChainRun RunChain(int n = 4) {
  ChainRun run{MakeChainApp(), {}};
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(MakeMap({{"x", i}}));
  }
  ServerConfig config;
  config.concurrency = 2;
  Server server(*run.app.program, config);
  run.server = server.Run(inputs);
  return run;
}

AuditResult Audit(ChainRun& run) {
  return AuditOnly(run.app, run.server.trace, run.server.advice,
                   IsolationLevel::kSerializable);
}

TEST(VerifierUnitTest, ChainAppAuditsCleanly) {
  ChainRun run = RunChain();
  AuditResult audit = Audit(run);
  EXPECT_TRUE(audit.accepted) << audit.reason;
  // 2 handlers per request, identical control flow -> 1 group, 2 executions.
  EXPECT_EQ(audit.stats.groups, 1u);
  EXPECT_EQ(audit.stats.handler_executions, 2u);
}

TEST(VerifierUnitTest, AdviceForInitHandlerRejected) {
  // rid 0 is the initialization pseudo-handler; advice may not claim ops
  // for it (the verifier re-creates init itself).
  ChainRun run = RunChain();
  run.server.advice.opcounts[{kInitRequestId, 0x77}] = 1;
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
}

TEST(VerifierUnitTest, OpcountWithReservedHandlerIdRejected) {
  ChainRun run = RunChain();
  run.server.advice.opcounts[{1, kInitHandlerId}] = 1;
  EXPECT_FALSE(Audit(run).accepted);
}

TEST(VerifierUnitTest, HandlerLogOpnumOutOfRangeRejected) {
  ChainRun run = RunChain();
  auto& log = run.server.advice.handler_logs.begin()->second;
  ASSERT_FALSE(log.empty());
  log.front().opnum = 999;
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
  EXPECT_NE(audit.reason.find("out of range"), std::string::npos) << audit.reason;
}

TEST(VerifierUnitTest, DuplicateLogPositionsRejected) {
  // Two handler-log entries claiming the same (rid, hid, opnum).
  ChainRun run = RunChain();
  auto& log = run.server.advice.handler_logs.begin()->second;
  ASSERT_FALSE(log.empty());
  HandlerLogEntry dup = log.front();
  // Grow the opcount so a second entry at the same position isn't caught by
  // the range check first.
  log.push_back(dup);
  run.server.advice.opcounts[{run.server.advice.handler_logs.begin()->first, dup.hid}] += 1;
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
  EXPECT_NE(audit.reason.find("same operation"), std::string::npos) << audit.reason;
}

TEST(VerifierUnitTest, RegistrationOfUnknownFunctionRejected) {
  ChainRun run = RunChain();
  auto& [rid, log] = *run.server.advice.handler_logs.begin();
  HandlerLogEntry bogus;
  bogus.kind = HandlerLogEntry::Kind::kRegister;
  bogus.hid = log.front().hid;
  bogus.opnum = log.front().opnum;  // Will collide, but the function check fires first?
  bogus.event = EventId("whatever");
  bogus.function = DigestOf("no_such_function");
  // Use a fresh opnum to isolate the unknown-function check.
  bogus.opnum = 2;
  run.server.advice.opcounts[{rid, bogus.hid}] = 2;
  log.push_back(bogus);
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
}

TEST(VerifierUnitTest, UnregisterWithoutRegisterRejected) {
  ChainRun run = RunChain();
  auto& [rid, log] = *run.server.advice.handler_logs.begin();
  HandlerLogEntry bogus;
  bogus.kind = HandlerLogEntry::Kind::kUnregister;
  bogus.hid = log.front().hid;
  bogus.opnum = 2;
  bogus.event = EventId("chain_next");
  bogus.function = DigestOf("chain_tail");  // Globally registered, not per-request.
  run.server.advice.opcounts[{rid, bogus.hid}] = 2;
  log.push_back(bogus);
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
}

TEST(VerifierUnitTest, MissingTagRejected) {
  ChainRun run = RunChain();
  run.server.advice.tags.erase(run.server.advice.tags.begin());
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
  EXPECT_NE(audit.reason.find("tag"), std::string::npos) << audit.reason;
}

TEST(VerifierUnitTest, ResponseEmittedByWrongPositionRejected) {
  ChainRun run = RunChain();
  auto& [rid, by] = *run.server.advice.response_emitted_by.begin();
  by.second += 1;  // Claim the response was sent one op later.
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
  (void)rid;
}

TEST(VerifierUnitTest, TruncatedOpcountRejected) {
  // Claiming fewer ops than the handler really issues: re-execution trips
  // the "more operations than opcount" check.
  ChainRun run = RunChain();
  bool mutated = false;
  for (auto& [key, count] : run.server.advice.opcounts) {
    if (count > 0) {
      count -= 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_FALSE(Audit(run).accepted);
}

TEST(VerifierUnitTest, ResponseBeforeRequestInTraceRejected) {
  ChainRun run = RunChain();
  // Move the first response event to the very front of the trace.
  auto& events = run.server.trace.events;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TraceEvent::Kind::kResponse) {
      TraceEvent moved = events[i];
      events.erase(events.begin() + static_cast<long>(i));
      events.insert(events.begin(), moved);
      break;
    }
  }
  AuditResult audit = Audit(run);
  EXPECT_FALSE(audit.accepted);
  EXPECT_NE(audit.reason.find("balanced"), std::string::npos) << audit.reason;
}

// "Check Tr is balanced" (Figure 14): a missing, duplicated or repeated
// event rejects before any re-execution.
TEST(VerifierUnitTest, UnbalancedTracesRejected) {
  struct Case {
    const char* name;
    TraceEvent::Kind kind;  // Kind of the event dropped or repeated.
    bool drop;
    const char* reason;
  };
  const Case cases[] = {
      {"missing response", TraceEvent::Kind::kResponse, true, "has no response"},
      {"duplicate request", TraceEvent::Kind::kRequest, false, "duplicate request id"},
      {"duplicate response", TraceEvent::Kind::kResponse, false, "delivered twice"},
  };
  for (const Case& c : cases) {
    ChainRun run = RunChain();
    auto& events = run.server.trace.events;
    auto it = std::find_if(events.rbegin(), events.rend(),
                           [&c](const TraceEvent& ev) { return ev.kind == c.kind; });
    ASSERT_NE(it, events.rend()) << c.name;
    if (c.drop) {
      events.erase(std::next(it).base());
    } else {
      events.push_back(*it);
    }
    AuditResult audit = Audit(run);
    EXPECT_FALSE(audit.accepted) << c.name;
    EXPECT_EQ(audit.reason.rfind("trace is not balanced: ", 0), 0u) << c.name << ": "
                                                                    << audit.reason;
    EXPECT_NE(audit.reason.find(c.reason), std::string::npos) << c.name << ": " << audit.reason;
  }
}

TEST(VerifierUnitTest, TimePrecedenceOrderingIsEnforcedNotInvented) {
  // Epoch encoding must order resp(1) before req(3) (cycle if violated) but
  // must NOT order two responses against each other. We validate the
  // positive side end-to-end: sequential requests whose advice claims
  // forward reads are rejected (covered in soundness tests); here we check
  // an honest heavily-pipelined trace still passes.
  ChainRun run{MakeChainApp(), {}};
  std::vector<Value> inputs;
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(MakeMap({{"x", i % 3}}));
  }
  ServerConfig config;
  config.concurrency = 10;
  Server server(*run.app.program, config);
  run.server = server.Run(inputs);
  AuditResult audit = Audit(run);
  EXPECT_TRUE(audit.accepted) << audit.reason;
}

TEST(VerifierUnitTest, AuditStatsMergeSumsEveryField) {
  AuditStats a;
  a.groups = 1;
  a.group_lane_total = 2;
  a.handler_executions = 3;
  a.handler_lanes = 4;
  a.ops_executed = 5;
  a.graph_nodes = 6;
  a.graph_edges = 7;
  a.var_dict_entries = 8;
  a.isolation_dg_nodes = 9;
  a.isolation_dg_edges = 10;
  AuditStats b;
  b.groups = 100;
  b.group_lane_total = 200;
  b.handler_executions = 300;
  b.handler_lanes = 400;
  b.ops_executed = 500;
  b.graph_nodes = 600;
  b.graph_edges = 700;
  b.var_dict_entries = 800;
  b.isolation_dg_nodes = 900;
  b.isolation_dg_edges = 1000;

  AuditStats ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab.groups, 101u);
  EXPECT_EQ(ab.group_lane_total, 202u);
  EXPECT_EQ(ab.handler_executions, 303u);
  EXPECT_EQ(ab.handler_lanes, 404u);
  EXPECT_EQ(ab.ops_executed, 505u);
  EXPECT_EQ(ab.graph_nodes, 606u);
  EXPECT_EQ(ab.graph_edges, 707u);
  EXPECT_EQ(ab.var_dict_entries, 808u);
  EXPECT_EQ(ab.isolation_dg_nodes, 909u);
  EXPECT_EQ(ab.isolation_dg_edges, 1010u);

  // Commutative: merge order across group deltas must not matter.
  AuditStats ba = b;
  ba.Merge(a);
  EXPECT_EQ(ba.groups, ab.groups);
  EXPECT_EQ(ba.ops_executed, ab.ops_executed);
  EXPECT_EQ(ba.isolation_dg_edges, ab.isolation_dg_edges);

  // Merging a default block is the identity.
  AuditStats id = a;
  id.Merge(AuditStats{});
  EXPECT_EQ(id.groups, a.groups);
  EXPECT_EQ(id.var_dict_entries, a.var_dict_entries);
}

TEST(VerifierUnitTest, StatsReportDedupFactors) {
  ChainRun run = RunChain(12);
  AuditResult audit = Audit(run);
  ASSERT_TRUE(audit.accepted) << audit.reason;
  EXPECT_EQ(audit.stats.group_lane_total, 12u);
  EXPECT_EQ(audit.stats.handler_executions, 2u);
  EXPECT_EQ(audit.stats.handler_lanes, 24u);
  EXPECT_GT(audit.stats.graph_nodes, 24u);
  EXPECT_GT(audit.stats.graph_edges, audit.stats.graph_nodes / 2);
}

}  // namespace
}  // namespace karousos
