// Wire front-end benchmark: sustained request throughput and client-observed
// wire latency (p50/p99) through the epoll front-end over a Unix-domain
// socket, per app and worker count, plus the slow-client bounded-memory
// scenario (a client that floods requests without reading responses must be
// read-disabled, keeping resident per-connection bytes near the high
// watermark instead of growing with the backlog).
//
// Usage: net_wire [output.json] [--quick]   (--quick: 150 requests, 1 rep)
//
// Hard-fails on its own if any shard produced over the wire fails its audit,
// if the slow-client flood never triggers backpressure, or if peak resident
// connection memory exceeds high watermark + one read chunk + one response
// frame — so running the binary is itself the correctness gate; bench_diff
// gates the throughput/latency numbers against the committed baseline.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/audit/audit.h"
#include "src/net/client.h"
#include "src/net/wire_server.h"
#include "src/workload/wire_load.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  std::string app;
  size_t workers = 0;
  size_t requests = 0;
  size_t connections = 0;
  double wire_rps = 0;
  double wire_p50_ms = 0;
  double wire_p99_ms = 0;
  double serve_seconds = 0;
  // The same workload through the same socket path with advice collection
  // off: the wire-level record overhead is what karousos costs end-to-end
  // when the transport, framing, and scheduling are all held constant.
  double wire_off_rps = 0;
  double wire_record_overhead = 0;  // wire_off_rps / wire_rps (1.0 = free).
};

std::string UniqueSocketPath(const char* tag) {
  static int counter = 0;
  return "unix:/tmp/karousos_bench_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

struct OneRun {
  bool ok = false;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double serve_seconds = 0;
};

// One server + one load run over a fresh unix socket. In karousos mode every
// wire shard must still audit clean; in off mode there is no advice to audit
// — that run is the transport-only baseline.
OneRun MeasureOnce(const char* name, const OpenLoopWorkload& workload, size_t workers,
                   size_t connections, size_t requests, CollectMode mode, size_t pipeline) {
  OneRun out;
  AppSpec app = MakeApp(name).value();
  WireServerConfig wc;
  wc.listen = UniqueSocketPath(name);
  wc.workers = workers;
  wc.batch = false;
  wc.server.concurrency = 4;
  wc.server.seed = 21;
  wc.server.mode = mode;
  WireServer server(*app.program, wc);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "start failed (%s): %s\n", name, error.c_str());
    return out;
  }
  WireLoadOptions lo;
  lo.connections = connections;
  lo.batch = false;
  lo.pipeline = pipeline;
  WireLoadReport load = RunWireLoad(server.bound_address(), workload, lo);
  if (!load.ok) {
    std::fprintf(stderr, "load failed (%s): %s\n", name, load.error.c_str());
    return out;
  }
  WireServerReport report = server.Wait();
  if (!report.ok) {
    std::fprintf(stderr, "serve failed (%s): %s\n", name, report.error.c_str());
    return out;
  }
  // Every shard served over the wire must still audit clean: the wire path
  // may reorder admissions but never the recorded facts.
  if (mode == CollectMode::kKarousos) {
    for (const WireShardResult& shard : report.shards) {
      AuditResult audit =
          AuditOnly(app, shard.run.trace, shard.run.advice, IsolationLevel::kSerializable);
      if (!audit.accepted) {
        std::fprintf(stderr, "BUG: wire shard %zu (%s, %zu workers) rejected: %s\n",
                     shard.worker, name, workers, audit.reason.c_str());
        return out;
      }
    }
  }
  out.rps = static_cast<double>(requests) / load.wall_seconds;
  out.p50_ms = bench::PercentileMs(load.latency_seconds, 0.50);
  out.p99_ms = bench::PercentileMs(load.latency_seconds, 0.99);
  out.serve_seconds = report.serve_seconds;
  out.ok = true;
  return out;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_net_wire.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = quick ? 150 : 600;
  const int kReps = quick ? 1 : 3;
  const size_t kConnections = 4;

  struct BenchApp {
    const char* name;
    WorkloadKind kind;
  };
  constexpr BenchApp kApps[] = {
      {"motd", WorkloadKind::kMixed},
      {"stacks", WorkloadKind::kMixed},
      {"auction", WorkloadKind::kAuctionMix},
  };

  std::printf("=== Wire front-end: throughput and latency over unix socket ===\n");
  std::printf("(%zu requests, %zu connections, live mode)\n", kRequests, kConnections);
  std::printf("%-8s %8s %12s %10s %10s %12s %10s %9s\n", "app", "workers", "req/s", "p50 (ms)",
              "p99 (ms)", "serve (s)", "off req/s", "overhead");

  std::vector<Row> rows;
  for (const BenchApp& bench_app : kApps) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      WorkloadConfig wl;
      wl.app = bench_app.name;
      wl.kind = bench_app.kind;
      wl.requests = kRequests;
      wl.seed = 7;
      wl.connections = static_cast<int>(kConnections);
      wl.arrival = ArrivalPattern::kClosed;
      OpenLoopWorkload workload = GenerateOpenLoop(wl);

      std::vector<double> rps, p50, p99, serve, off_rps;
      for (int rep = 0; rep < kReps; ++rep) {
        OneRun on = MeasureOnce(bench_app.name, workload, workers, kConnections, kRequests,
                                CollectMode::kKarousos, /*pipeline=*/0);
        if (!on.ok) {
          return 1;
        }
        OneRun off = MeasureOnce(bench_app.name, workload, workers, kConnections, kRequests,
                                 CollectMode::kOff, /*pipeline=*/0);
        if (!off.ok) {
          return 1;
        }
        rps.push_back(on.rps);
        p50.push_back(on.p50_ms);
        p99.push_back(on.p99_ms);
        serve.push_back(on.serve_seconds);
        off_rps.push_back(off.rps);
      }

      Row row;
      row.app = bench_app.name;
      row.workers = workers;
      row.requests = kRequests;
      row.connections = kConnections;
      row.wire_rps = bench::Median(rps);
      row.wire_p50_ms = bench::Median(p50);
      row.wire_p99_ms = bench::Median(p99);
      row.serve_seconds = bench::Median(serve);
      row.wire_off_rps = bench::Median(off_rps);
      row.wire_record_overhead = row.wire_rps > 0 ? row.wire_off_rps / row.wire_rps : 0.0;
      rows.push_back(row);
      std::printf("%-8s %8zu %12.0f %10.3f %10.3f %12.4f %10.0f %8.2fx\n", row.app.c_str(),
                  row.workers, row.wire_rps, row.wire_p50_ms, row.wire_p99_ms,
                  row.serve_seconds, row.wire_off_rps, row.wire_record_overhead);
    }
  }

  // Pipeline window sweep: the same closed-loop motd workload through 4
  // workers at per-connection windows 1 (strict RPC), 8 (pipelined), and 0
  // (unbounded — the default discipline above). The delta between 1 and 8 is
  // what request pipelining buys once per-request wire round-trips stop
  // serializing the schedule.
  struct PipeRow {
    size_t pipeline = 0;
    double wire_rps = 0;
    double wire_p50_ms = 0;
  };
  std::vector<PipeRow> pipe_rows;
  {
    WorkloadConfig wl;
    wl.app = "motd";
    wl.kind = WorkloadKind::kMixed;
    wl.requests = kRequests;
    wl.seed = 7;
    wl.connections = static_cast<int>(kConnections);
    wl.arrival = ArrivalPattern::kClosed;
    OpenLoopWorkload workload = GenerateOpenLoop(wl);
    for (size_t pipeline : {size_t{1}, size_t{8}, size_t{0}}) {
      std::vector<double> rps, p50;
      for (int rep = 0; rep < kReps; ++rep) {
        OneRun run = MeasureOnce("motd", workload, 4, kConnections, kRequests,
                                 CollectMode::kKarousos, pipeline);
        if (!run.ok) {
          return 1;
        }
        rps.push_back(run.rps);
        p50.push_back(run.p50_ms);
      }
      PipeRow row;
      row.pipeline = pipeline;
      row.wire_rps = bench::Median(rps);
      row.wire_p50_ms = bench::Median(p50);
      pipe_rows.push_back(row);
    }
    std::printf("pipeline (motd, 4 workers): window 1 %.0f req/s, window 8 %.0f req/s "
                "(%.2fx), unbounded %.0f req/s\n",
                pipe_rows[0].wire_rps, pipe_rows[1].wire_rps,
                pipe_rows[0].wire_rps > 0 ? pipe_rows[1].wire_rps / pipe_rows[0].wire_rps : 0.0,
                pipe_rows[2].wire_rps);
  }

  // Slow-client scenario: flood ~8KB set-requests without reading a single
  // response, then finally drain. Backpressure must engage (>= 1
  // read-disable) and peak resident bytes must stay near the watermark.
  const size_t kHighWatermark = 64 * 1024;
  const size_t kSlowRequests = 200;
  size_t slow_peak = 0;
  uint64_t slow_read_disables = 0;
  {
    AppSpec app = MakeMotdApp();
    WireServerConfig wc;
    wc.listen = UniqueSocketPath("slow");
    wc.workers = 1;
    wc.batch = false;
    wc.high_watermark = kHighWatermark;
    wc.server.concurrency = 2;
    wc.server.seed = 21;
    WireServer server(*app.program, wc);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "slow-client start failed: %s\n", error.c_str());
      return 1;
    }
    auto conn = WireConn::Connect(server.bound_address(), &error);
    if (conn == nullptr) {
      std::fprintf(stderr, "slow-client connect failed: %s\n", error.c_str());
      return 1;
    }
    ValueMap set_req;
    set_req.emplace("op", Value("set"));
    set_req.emplace("day", Value("monday"));
    set_req.emplace("msg", Value(std::string(8 * 1024, 'm')));
    const Value big(set_req);
    for (size_t i = 0; i < kSlowRequests; ++i) {
      if (!conn->SendRequest(i, big, &error)) {
        std::fprintf(stderr, "slow-client send failed: %s\n", error.c_str());
        return 1;
      }
    }
    for (size_t received = 0; received < kSlowRequests; ++received) {
      uint64_t seq = 0;
      Value value;
      if (!conn->ReadResponse(&seq, &value, 30000, &error)) {
        std::fprintf(stderr, "slow-client read failed: %s\n", error.c_str());
        return 1;
      }
    }
    if (!conn->SendShutdown(1, &error)) {
      std::fprintf(stderr, "slow-client shutdown failed: %s\n", error.c_str());
      return 1;
    }
    WireServerReport report = server.Wait();
    if (!report.ok || report.responses != kSlowRequests) {
      std::fprintf(stderr, "slow-client serve failed: %s\n", report.error.c_str());
      return 1;
    }
    slow_peak = report.peak_connection_buffered_bytes;
    slow_read_disables = report.read_disables;
    std::printf("slow client: %zu x 8KB flood, high watermark %zu B -> peak %zu B, "
                "%llu read-disables\n",
                kSlowRequests, kHighWatermark, slow_peak,
                static_cast<unsigned long long>(slow_read_disables));
    if (slow_read_disables == 0) {
      std::fprintf(stderr, "BUG: slow-client flood never triggered backpressure\n");
      return 1;
    }
    // High watermark + one 16KB read chunk + one in-flight response frame;
    // an unbounded buffer would have held ~1.6MB.
    if (slow_peak > kHighWatermark + 64 * 1024) {
      std::fprintf(stderr, "BUG: peak resident %zu B exceeds watermark bound %zu B\n",
                   slow_peak, kHighWatermark + 64 * 1024);
      return 1;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"net_wire\",\n  \"requests\": %zu,\n"
               "  \"connections\": %zu,\n  \"rows\": [\n",
               kRequests, kConnections);
  for (const Row& r : rows) {
    std::fprintf(out,
                 "    {\"app\": \"%s\", \"workers\": %zu, \"wire_rps\": %.0f, "
                 "\"wire_p50_ms\": %.4f, \"wire_p99_ms\": %.4f, \"serve_seconds\": %.6f, "
                 "\"wire_off_rps\": %.0f, \"wire_record_overhead\": %.4f},\n",
                 r.app.c_str(), r.workers, r.wire_rps, r.wire_p50_ms, r.wire_p99_ms,
                 r.serve_seconds, r.wire_off_rps, r.wire_record_overhead);
  }
  for (const PipeRow& r : pipe_rows) {
    std::fprintf(out,
                 "    {\"scenario\": \"pipeline\", \"app\": \"motd\", \"workers\": 4, "
                 "\"pipeline\": %zu, \"wire_rps\": %.0f, \"wire_p50_ms\": %.4f},\n",
                 r.pipeline, r.wire_rps, r.wire_p50_ms);
  }
  std::fprintf(out,
               "    {\"scenario\": \"slow_client\", \"high_watermark_bytes\": %zu, "
               "\"peak_buffered_bytes\": %zu, \"read_disables\": %llu}\n  ]\n}\n",
               kHighWatermark, slow_peak, static_cast<unsigned long long>(slow_read_disables));
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
