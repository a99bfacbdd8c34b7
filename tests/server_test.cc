// Online-server tests: trace shape, advice shape, determinism across
// instrumentation modes, and the behaviour of the model applications.
#include "src/server/server.h"

#include <gtest/gtest.h>

#include <map>

#include "src/apps/app.h"
#include "src/common/value.h"

namespace karousos {
namespace {

// Every request in the trace arrives once and is answered once, after it
// arrives (the audit rejects a trace that is not balanced; here the server's
// own output is checked).
::testing::AssertionResult TraceIsBalanced(const Trace& trace) {
  std::map<RequestId, int> state;  // 0 unseen, 1 requested, 2 responded.
  for (const TraceEvent& ev : trace.events) {
    int& s = state[ev.rid];
    if (ev.kind == TraceEvent::Kind::kRequest) {
      if (s != 0) {
        return ::testing::AssertionFailure() << "duplicate request id " << ev.rid;
      }
      s = 1;
    } else {
      if (s != 1) {
        return ::testing::AssertionFailure()
               << "response for request " << ev.rid
               << (s == 0 ? " before its request" : " delivered twice");
      }
      s = 2;
    }
  }
  for (const auto& [rid, s] : state) {
    if (s != 2) {
      return ::testing::AssertionFailure() << "request " << rid << " has no response";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<Value> MotdInputs() {
  return {
      MakeMap({{"op", "set"}, {"day", "mon"}, {"msg", "hello monday"}}),
      MakeMap({{"op", "get"}, {"day", "mon"}}),
      MakeMap({{"op", "get"}, {"day", "tue"}}),
      MakeMap({{"op", "set"}, {"day", "every"}, {"msg", "default"}}),
      MakeMap({{"op", "get"}, {"day", "tue"}}),
  };
}

TEST(ServerTest, MotdSequentialResponses) {
  AppSpec app = MakeMotdApp();
  ServerConfig config;
  config.concurrency = 1;
  Server server(*app.program, config);
  ServerRunResult result = server.Run(MotdInputs());

  EXPECT_TRUE(TraceIsBalanced(result.trace));
  ASSERT_EQ(result.trace.request_count(), 5u);
  EXPECT_EQ(result.trace.Response(2)->Field("msg"), Value("hello monday"));
  EXPECT_EQ(result.trace.Response(3)->Field("msg"), Value("no message"));
  EXPECT_EQ(result.trace.Response(5)->Field("msg"), Value("default"));
  // The rendered etag is deterministic: equal messages yield equal etags.
  EXPECT_EQ(result.trace.Response(3)->Field("etag"), result.trace.Response(3)->Field("etag"));
}

TEST(ServerTest, MotdAdviceLogsAllAccesses) {
  // Every MOTD handler is a request handler (child of I), so all accesses to
  // the shared hashmap are R-concurrent and must be logged (§6.2).
  AppSpec app = MakeMotdApp();
  ServerConfig config;
  config.concurrency = 4;
  Server server(*app.program, config);
  ServerRunResult result = server.Run(MotdInputs());
  // Every request issues one read (sets also one write); accesses whose
  // dictating/preceding write is the init handler's are R-ordered (I precedes
  // everything) and stay unlogged, everything else is logged.
  EXPECT_EQ(result.advice.var_logs.size(), 1u);
  EXPECT_GE(result.advice.var_log_entry_count(), 5u);
  EXPECT_EQ(result.advice.tags.size(), 5u);
  EXPECT_EQ(result.advice.response_emitted_by.size(), 5u);
}

TEST(ServerTest, ModeDoesNotChangeTraceOrResponses) {
  // The same seed must produce identical schedules and responses across
  // unmodified / Karousos / Orochi servers, or mode comparisons would be
  // measuring different executions.
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs;
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0:
      case 1:
        inputs.push_back(MakeMap({{"op", "submit"}, {"dump", Value("trace" + std::to_string(i % 6))}}));
        break;
      case 2:
        inputs.push_back(MakeMap({{"op", "count"}, {"dump", Value("trace" + std::to_string(i % 6))}}));
        break;
      default:
        inputs.push_back(MakeMap({{"op", "list"}}));
    }
  }
  std::vector<Trace> traces;
  for (CollectMode mode : {CollectMode::kOff, CollectMode::kKarousos, CollectMode::kOrochi}) {
    AppSpec fresh = MakeStacksApp();
    ServerConfig config;
    config.mode = mode;
    config.concurrency = 8;
    config.seed = 7;
    Server server(*fresh.program, config);
    traces.push_back(server.Run(inputs).trace);
  }
  ASSERT_EQ(traces[0].events.size(), traces[1].events.size());
  for (size_t i = 0; i < traces[0].events.size(); ++i) {
    EXPECT_EQ(traces[0].events[i].kind, traces[1].events[i].kind);
    EXPECT_EQ(traces[0].events[i].rid, traces[1].events[i].rid);
    EXPECT_EQ(traces[0].events[i].payload, traces[1].events[i].payload);
    EXPECT_EQ(traces[1].events[i].payload, traces[2].events[i].payload);
  }
}

TEST(ServerTest, StacksSubmitCountList) {
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs = {
      MakeMap({{"op", "submit"}, {"dump", "stack A"}}),
      MakeMap({{"op", "submit"}, {"dump", "stack A"}}),
      MakeMap({{"op", "submit"}, {"dump", "stack B"}}),
      MakeMap({{"op", "count"}, {"dump", "stack A"}}),
      MakeMap({{"op", "list"}}),
  };
  ServerConfig config;
  config.concurrency = 1;  // Sequential: no retries possible.
  Server server(*app.program, config);
  ServerRunResult result = server.Run(inputs);
  ASSERT_TRUE(TraceIsBalanced(result.trace));
  EXPECT_EQ(result.trace.Response(1)->Field("new"), Value(true));
  EXPECT_EQ(result.trace.Response(2)->Field("new"), Value(false));
  EXPECT_EQ(result.trace.Response(4)->Field("count"), Value(int64_t{2}));
  Value list_response = *result.trace.Response(5);
  const Value& dumps = list_response.Field("dumps");
  ASSERT_TRUE(dumps.is_list());
  EXPECT_EQ(dumps.AsList().size(), 2u);
}

TEST(ServerTest, StacksConcurrentSameDumpHitsRetryGuard) {
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs;
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(MakeMap({{"op", "submit"}, {"dump", "hot dump"}}));
  }
  ServerConfig config;
  config.concurrency = 10;
  config.seed = 3;
  Server server(*app.program, config);
  ServerRunResult result = server.Run(inputs);
  ASSERT_TRUE(TraceIsBalanced(result.trace));
  int retries = 0;
  int oks = 0;
  for (RequestId rid : result.trace.RequestIds()) {
    Value response = *result.trace.Response(rid);
    if (response.Field("retry").Truthy()) {
      ++retries;
    } else if (response.Field("ok").Truthy()) {
      ++oks;
    }
  }
  EXPECT_GT(retries, 0) << "concurrent same-dump submits should trip the in-flight guard";
  EXPECT_GT(oks, 0);
  EXPECT_EQ(retries + oks, 30);
}

TEST(ServerTest, WikiEndToEnd) {
  AppSpec app = MakeWikiApp();
  std::vector<Value> inputs = {
      MakeMap({{"op", "create_page"}, {"id", "p1"}, {"title", "T"}, {"content", "C"}, {"conn", 0}}),
      MakeMap({{"op", "render"}, {"page", "p1"}, {"conn", 0}}),
      MakeMap({{"op", "render"}, {"page", "p1"}, {"conn", 0}}),
      MakeMap({{"op", "create_comment"}, {"page", "p1"}, {"text", "nice"}, {"conn", 0}}),
      MakeMap({{"op", "render"}, {"page", "p1"}, {"conn", 0}}),
      MakeMap({{"op", "render"}, {"page", "nope"}, {"conn", 0}}),
  };
  ServerConfig config;
  config.concurrency = 1;
  Server server(*app.program, config);
  ServerRunResult result = server.Run(inputs);
  ASSERT_TRUE(TraceIsBalanced(result.trace));
  EXPECT_EQ(result.trace.Response(2)->Field("cached"), Value(false));
  EXPECT_EQ(result.trace.Response(3)->Field("cached"), Value(true));
  // The comment invalidates the cache; the next render recomputes.
  EXPECT_EQ(result.trace.Response(5)->Field("cached"), Value(false));
  EXPECT_NE(result.trace.Response(5)->Field("html").AsString().find("nice"), std::string::npos);
  // Rendering a nonexistent page produces an empty shell (the parallel
  // fetches find nothing), not a crash.
  EXPECT_NE(result.trace.Response(6)->Field("html").AsString().find("<h1></h1>"),
            std::string::npos);
}

TEST(ServerTest, PingpongHandlerTreeAdvice) {
  AppSpec app = MakePingpongApp();
  ServerConfig config;
  config.concurrency = 2;
  Server server(*app.program, config);
  ServerRunResult result = server.Run({MakeMap({{"n", 1}}), MakeMap({{"n", 5}})});
  EXPECT_EQ(*result.trace.Response(1), MakeMap({{"n", 3}}));
  EXPECT_EQ(*result.trace.Response(2), MakeMap({{"n", 7}}));
  // Two handlers per request -> 4 opcount entries; one emit each -> one
  // handler-log entry per request.
  EXPECT_EQ(result.advice.opcounts.size(), 4u);
  EXPECT_EQ(result.advice.handler_log_entry_count(), 2u);
  // Same structure and control flow -> same tag.
  EXPECT_EQ(result.advice.tags.at(1), result.advice.tags.at(2));
}

TEST(ServerTest, AdviceRoundTripsThroughWireFormat) {
  AppSpec app = MakeStacksApp();
  std::vector<Value> inputs = {
      MakeMap({{"op", "submit"}, {"dump", "x"}}),
      MakeMap({{"op", "list"}}),
      MakeMap({{"op", "count"}, {"dump", "x"}}),
  };
  ServerConfig config;
  config.concurrency = 3;
  Server server(*app.program, config);
  ServerRunResult result = server.Run(inputs);
  ByteWriter writer;
  result.advice.Serialize(&writer);
  ByteReader reader(writer.bytes());
  auto decoded = Advice::Deserialize(&reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded->tags, result.advice.tags);
  EXPECT_EQ(decoded->opcounts, result.advice.opcounts);
  EXPECT_EQ(decoded->write_order, result.advice.write_order);
  EXPECT_EQ(decoded->var_log_entry_count(), result.advice.var_log_entry_count());
  EXPECT_EQ(decoded->handler_log_entry_count(), result.advice.handler_log_entry_count());
}

}  // namespace
}  // namespace karousos
