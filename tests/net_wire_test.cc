// End-to-end wire-mode equivalence: the network front-end's per-worker
// record shards must carry exactly the audit weight of in-process serving.
//
//   * Batch mode: each shard's trace and advice are byte-identical to an
//     in-process Server(seed + w).Run(shard_inputs) oracle, across apps and
//     worker counts — the strongest form of the wire/in-process contract.
//   * Live mode: the schedule depends on arrival timing, so the contract is
//     the audit verdict quadruple (accepted, reason, rule, diagnostics).
//   * Tamper differential: forging a response in a wire shard rejects with
//     the same rule as the identical forgery of the in-process oracle.
//   * Slow-client flow control: a peer that floods requests and never
//     drains responses keeps per-connection resident bytes bounded near the
//     high watermark instead of ballooning with the backlog.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/audit/audit.h"
#include "src/common/serde.h"
#include "src/net/client.h"
#include "src/net/wire_server.h"
#include "src/server/server.h"
#include "src/workload/wire_load.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

std::string UniqueSocketPath(const std::string& tag) {
  static int counter = 0;
  return "unix:/tmp/karousos_net_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(++counter) + ".sock";
}

std::vector<Value> MakeInputs(const std::string& app, size_t requests, uint64_t seed) {
  WorkloadConfig wl;
  wl.app = app;
  wl.kind = app == "auction" ? WorkloadKind::kAuctionMix : WorkloadKind::kMixed;
  wl.requests = requests;
  wl.seed = seed;
  wl.connections = 4;
  return GenerateWorkload(wl);
}

std::vector<uint8_t> TraceBytes(const Trace& trace) {
  ByteWriter out;
  trace.Serialize(&out);
  return out.bytes();
}

std::vector<uint8_t> AdviceBytes(const Advice& advice) {
  ByteWriter out;
  advice.Serialize(&out);
  return out.bytes();
}

// The audit verdict quadruple the wire/in-process contract compares.
struct Verdict {
  bool accepted = false;
  std::string reason;
  std::string rule;
  std::vector<std::string> diagnostics;

  bool operator==(const Verdict& other) const {
    return accepted == other.accepted && reason == other.reason && rule == other.rule &&
           diagnostics == other.diagnostics;
  }
};

Verdict AuditVerdict(const AppSpec& app, const Trace& trace, const Advice& advice) {
  AuditResult result = AuditOnly(app, trace, advice, IsolationLevel::kSerializable);
  Verdict v;
  v.accepted = result.accepted;
  v.reason = result.reason;
  v.rule = result.rule;
  for (const LintDiagnostic& d : result.diagnostics) {
    v.diagnostics.push_back(d.Format());
  }
  return v;
}

// Worker w's shard under round-robin connection assignment with one client
// connection per worker: the strided subsequence inputs[w::workers].
std::vector<Value> ShardInputs(const std::vector<Value>& inputs, size_t workers, size_t w) {
  std::vector<Value> shard;
  for (size_t i = w; i < inputs.size(); i += workers) {
    shard.push_back(inputs[i]);
  }
  return shard;
}

ServerConfig BaseServerConfig() {
  ServerConfig config;
  config.mode = CollectMode::kKarousos;
  config.concurrency = 4;
  config.seed = 21;
  return config;
}

void RunBatchByteEquality(const std::string& app_name, size_t workers) {
  SCOPED_TRACE(app_name + " x " + std::to_string(workers) + " workers");
  AppSpec app = MakeApp(app_name).value();
  const std::vector<Value> inputs = MakeInputs(app_name, 48, 11);

  WireServerConfig wc;
  wc.listen = UniqueSocketPath(app_name);
  wc.workers = workers;
  wc.batch = true;
  wc.server = BaseServerConfig();
  WireServer server(*app.program, wc);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WireLoadOptions options;
  options.connections = workers;
  options.batch = true;
  WireLoadReport load = RunWireLoad(server.bound_address(), {inputs, {}}, options);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.received, inputs.size());

  WireServerReport report = server.Wait();
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.shards.size(), workers);
  EXPECT_EQ(report.requests, inputs.size());
  EXPECT_EQ(report.protocol_errors, 0u);

  for (size_t w = 0; w < workers; ++w) {
    SCOPED_TRACE("shard " + std::to_string(w));
    const std::vector<Value> shard_inputs = ShardInputs(inputs, workers, w);
    EXPECT_EQ(report.shards[w].requests, shard_inputs.size());

    ServerConfig oracle_config = BaseServerConfig();
    oracle_config.seed = oracle_config.seed + w;
    Server oracle(*app.program, oracle_config);
    ServerRunResult expect = oracle.Run(shard_inputs);

    // The tentpole contract: wire-mode shards are byte-identical to the
    // in-process oracle.
    EXPECT_EQ(TraceBytes(report.shards[w].run.trace), TraceBytes(expect.trace));
    EXPECT_EQ(AdviceBytes(report.shards[w].run.advice), AdviceBytes(expect.advice));

    Verdict wire_verdict = AuditVerdict(app, report.shards[w].run.trace,
                                        report.shards[w].run.advice);
    Verdict oracle_verdict = AuditVerdict(app, expect.trace, expect.advice);
    EXPECT_TRUE(wire_verdict.accepted);
    EXPECT_TRUE(wire_verdict == oracle_verdict);
  }
}

TEST(NetWireTest, BatchShardsMatchOracleMotd) {
  RunBatchByteEquality("motd", 1);
  RunBatchByteEquality("motd", 4);
}

TEST(NetWireTest, BatchShardsMatchOracleStacks) {
  RunBatchByteEquality("stacks", 1);
  RunBatchByteEquality("stacks", 4);
}

TEST(NetWireTest, BatchShardsMatchOracleAuction) {
  RunBatchByteEquality("auction", 1);
  RunBatchByteEquality("auction", 4);
}

TEST(NetWireTest, LiveModeAuditsToOracleVerdict) {
  const size_t workers = 2;
  AppSpec app = MakeMotdApp();
  const std::vector<Value> inputs = MakeInputs("motd", 40, 13);

  WireServerConfig wc;
  wc.listen = UniqueSocketPath("live");
  wc.workers = workers;
  wc.batch = false;
  wc.server = BaseServerConfig();
  WireServer server(*app.program, wc);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WireLoadOptions options;
  options.connections = workers;
  options.batch = false;
  WireLoadReport load = RunWireLoad(server.bound_address(), {inputs, {}}, options);
  ASSERT_TRUE(load.ok) << load.error;

  WireServerReport report = server.Wait();
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.shards.size(), workers);
  EXPECT_EQ(report.requests, inputs.size());
  EXPECT_EQ(report.responses, inputs.size());

  for (size_t w = 0; w < workers; ++w) {
    SCOPED_TRACE("shard " + std::to_string(w));
    ServerConfig oracle_config = BaseServerConfig();
    oracle_config.seed = oracle_config.seed + w;
    Server oracle(*app.program, oracle_config);
    ServerRunResult expect = oracle.Run(ShardInputs(inputs, workers, w));

    Verdict wire_verdict = AuditVerdict(app, report.shards[w].run.trace,
                                        report.shards[w].run.advice);
    Verdict oracle_verdict = AuditVerdict(app, expect.trace, expect.advice);
    EXPECT_TRUE(wire_verdict.accepted);
    EXPECT_TRUE(wire_verdict == oracle_verdict)
        << "wire: " << wire_verdict.reason << " / " << wire_verdict.rule
        << "; oracle: " << oracle_verdict.reason << " / " << oracle_verdict.rule;
  }
}

TEST(NetWireTest, TamperedWireShardRejectsLikeTamperedOracle) {
  AppSpec app = MakeMotdApp();
  const std::vector<Value> inputs = MakeInputs("motd", 24, 17);

  WireServerConfig wc;
  wc.listen = UniqueSocketPath("tamper");
  wc.workers = 1;
  wc.batch = true;
  wc.server = BaseServerConfig();
  WireServer server(*app.program, wc);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireLoadOptions options;
  options.connections = 1;
  options.batch = true;
  WireLoadReport load = RunWireLoad(server.bound_address(), {inputs, {}}, options);
  ASSERT_TRUE(load.ok) << load.error;
  WireServerReport report = server.Wait();
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.shards.size(), 1u);

  Server oracle(*app.program, BaseServerConfig());
  ServerRunResult expect = oracle.Run(inputs);

  auto forge = [](Trace trace) {
    for (TraceEvent& event : trace.events) {
      if (event.kind == TraceEvent::Kind::kResponse) {
        event.payload = Value("forged response");
        break;
      }
    }
    return trace;
  };
  Verdict wire_verdict =
      AuditVerdict(app, forge(report.shards[0].run.trace), report.shards[0].run.advice);
  Verdict oracle_verdict = AuditVerdict(app, forge(expect.trace), expect.advice);
  EXPECT_FALSE(wire_verdict.accepted);
  EXPECT_FALSE(oracle_verdict.accepted);
  EXPECT_TRUE(wire_verdict == oracle_verdict)
      << "wire: " << wire_verdict.reason << "; oracle: " << oracle_verdict.reason;
}

TEST(NetWireTest, SlowClientKeepsResidentBytesBounded) {
  AppSpec app = MakeMotdApp();
  const size_t kHighWatermark = 64 * 1024;

  WireServerConfig wc;
  wc.listen = UniqueSocketPath("slow");
  wc.workers = 1;
  wc.batch = false;
  wc.high_watermark = kHighWatermark;
  wc.server = BaseServerConfig();
  wc.server.concurrency = 2;
  WireServer server(*app.program, wc);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Flood 200 x ~8KB set-requests without reading a single response: the
  // response backlog crosses the write watermark, the server read-disables
  // the connection, and the unread flood stays in kernel buffers instead of
  // resident server memory.
  auto conn = WireConn::Connect(server.bound_address(), &error);
  ASSERT_NE(conn, nullptr) << error;
  const size_t kRequests = 200;
  ValueMap set_req;
  set_req.emplace("op", Value("set"));
  set_req.emplace("day", Value("monday"));
  set_req.emplace("msg", Value(std::string(8 * 1024, 'm')));
  const Value big(set_req);
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(conn->SendRequest(i, big, &error)) << error;
  }

  // Now drain everything (the slow client finally catches up), then stop.
  size_t received = 0;
  while (received < kRequests) {
    uint64_t seq = 0;
    Value value;
    ASSERT_TRUE(conn->ReadResponse(&seq, &value, 30000, &error)) << error;
    ++received;
  }
  ASSERT_TRUE(conn->SendShutdown(1, &error)) << error;

  WireServerReport report = server.Wait();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.requests, kRequests);
  EXPECT_EQ(report.responses, kRequests);
  // Backpressure engaged at least once...
  EXPECT_GE(report.read_disables, 1u);
  // ...and resident per-connection memory stayed near the watermark: at most
  // high + one 16KB read chunk + one in-flight response frame, far below the
  // ~1.6MB an unbounded buffer would have held.
  EXPECT_LE(report.peak_connection_buffered_bytes, kHighWatermark + 64 * 1024);
}

TEST(NetWireTest, GarbageBytesGetErrorFrameAndClose) {
  AppSpec app = MakeMotdApp();
  WireServerConfig wc;
  wc.listen = UniqueSocketPath("garbage");
  wc.workers = 1;
  wc.batch = false;
  wc.server = BaseServerConfig();
  WireServer server(*app.program, wc);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  int fd = ConnectToAddress(server.bound_address(), &error);
  ASSERT_GE(fd, 0) << error;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(write(fd, garbage, sizeof(garbage) - 1), 0);

  // The server must reply with an error frame and close.
  std::vector<uint8_t> reply(4096);
  size_t total = 0;
  for (;;) {
    ssize_t n = read(fd, reply.data() + total, reply.size() - total);
    if (n <= 0) {
      break;
    }
    total += static_cast<size_t>(n);
  }
  close(fd);
  ASSERT_GE(total, kWireFrameHeaderBytes);
  EXPECT_EQ(reply[0], static_cast<uint8_t>(FrameType::kError));

  server.Stop();
  WireServerReport report = server.Wait();
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.protocol_errors, 1u);
  EXPECT_EQ(report.requests, 0u);
}

}  // namespace
}  // namespace karousos
