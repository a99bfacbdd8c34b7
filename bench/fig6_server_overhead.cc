// Figure 6: Karousos server vs unmodified server — processing time for the
// 480 post-warmup requests of a 600-request run, for the workloads with the
// largest overheads (MOTD write-heavy, stacks read-heavy, wiki mixed), plus
// the per-request record latency distribution (p50/p99) and throughput in
// both modes. The tracked quantity is overhead_seconds = karousos − off: the
// wall-clock cost of advice collection itself, which is what the record-path
// optimizations attack.
//
// Usage: fig6_server_overhead [output.json] [--compare baseline.json] [--quick]
//
// With --compare, each row additionally carries baseline_overhead_seconds and
// overhead_speedup (baseline overhead / this build's overhead), joined
// against the baseline file's (app, concurrency) rows. --quick restricts the
// sweep to concurrency 15 with 3 reps for CI. tools/bench_diff.py diffs two
// output files and gates on overhead regressions.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/app.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  std::string app;
  int concurrency = 0;
  double off_seconds = 0;
  double karousos_seconds = 0;
  double overhead_seconds = 0;
  double ratio = 0;
  double off_p50_ms = 0;
  double off_p99_ms = 0;
  double karousos_p50_ms = 0;
  double karousos_p99_ms = 0;
  double off_rps = 0;
  double karousos_rps = 0;
  double baseline_overhead_seconds = 0;  // 0 = no baseline row matched.
};

struct BenchSpec {
  std::string app;
  WorkloadKind kind;
};

struct ModeStats {
  double seconds = 0;  // Median post-warmup serve time across reps.
  double p50_ms = 0;   // Pooled post-warmup request latencies across reps.
  double p99_ms = 0;
  double rps = 0;
};

ModeStats RunMode(const BenchSpec& spec, CollectMode mode, int concurrency, size_t requests,
                  size_t warmup, int reps) {
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = requests;
  wl.seed = 7;
  wl.connections = concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  std::vector<double> times;
  std::vector<double> latencies;
  for (int rep = 0; rep < reps; ++rep) {
    AppSpec app = MakeApp(spec.app).value();
    ServerConfig config;
    config.mode = mode;
    config.concurrency = concurrency;
    config.seed = 7;
    config.warmup_requests = warmup;
    config.measure_request_latencies = true;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);
    times.push_back(run.serve_seconds);
    if (run.request_latencies.size() > warmup) {
      latencies.insert(latencies.end(), run.request_latencies.begin() + static_cast<long>(warmup),
                       run.request_latencies.end());
    }
  }

  ModeStats stats;
  stats.seconds = bench::Median(times);
  stats.p50_ms = bench::PercentileMs(latencies, 0.50);
  stats.p99_ms = bench::PercentileMs(latencies, 0.99);
  stats.rps = stats.seconds > 0 ? static_cast<double>(requests - warmup) / stats.seconds : 0;
  return stats;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_fig6_server_overhead.json";
  std::string baseline_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = 600;
  const size_t kWarmup = 120;
  const int reps = quick ? 3 : 5;
  const std::vector<int> concurrencies = quick ? std::vector<int>{15}
                                               : std::vector<int>{1, 4, 15, 30, 60};
  const BenchSpec specs[] = {
      {"motd", WorkloadKind::kWriteHeavy},
      {"stacks", WorkloadKind::kReadHeavy},
      {"wiki", WorkloadKind::kWikiMix},
  };

  // Baseline rows are keyed by (app, concurrency); overhead_seconds is the
  // record-path cost being tracked across builds.
  std::vector<Value> baseline;
  if (!baseline_path.empty()) {
    baseline = bench::LoadBaselineRows(baseline_path);
  }

  std::printf("=== Figure 6: advice-collection overhead at the server ===\n");
  std::printf("(%zu requests, first %zu warmup; medians of %d reps%s)\n", kRequests, kWarmup,
              reps, quick ? "; --quick" : "");

  std::vector<Row> rows;
  for (const BenchSpec& spec : specs) {
    std::printf("\n[%s] workload=\"%s\"\n", spec.app.c_str(), WorkloadKindName(spec.kind));
    std::printf("%6s %9s %9s %9s %7s %9s %9s %9s %9s %9s\n", "conc", "off (s)", "krsos (s)",
                "ovhd (s)", "ratio", "off p50", "off p99", "k p50", "k p99", "k req/s");
    for (int concurrency : concurrencies) {
      ModeStats off = RunMode(spec, CollectMode::kOff, concurrency, kRequests, kWarmup, reps);
      ModeStats krs =
          RunMode(spec, CollectMode::kKarousos, concurrency, kRequests, kWarmup, reps);

      Row row;
      row.app = spec.app;
      row.concurrency = concurrency;
      row.off_seconds = off.seconds;
      row.karousos_seconds = krs.seconds;
      row.overhead_seconds = krs.seconds - off.seconds;
      row.ratio = off.seconds > 0 ? krs.seconds / off.seconds : 0;
      row.off_p50_ms = off.p50_ms;
      row.off_p99_ms = off.p99_ms;
      row.karousos_p50_ms = krs.p50_ms;
      row.karousos_p99_ms = krs.p99_ms;
      row.off_rps = off.rps;
      row.karousos_rps = krs.rps;
      for (const Value& b : baseline) {
        if (b.Field("app").StringOr("") == row.app &&
            b.Field("concurrency").IntOr(0) == row.concurrency) {
          row.baseline_overhead_seconds = bench::NumberField(b, "overhead_seconds");
        }
      }
      rows.push_back(row);
      std::printf("%6d %9.4f %9.4f %9.4f %6.2fx %9.3f %9.3f %9.3f %9.3f %9.0f", concurrency,
                  row.off_seconds, row.karousos_seconds, row.overhead_seconds, row.ratio,
                  row.off_p50_ms, row.off_p99_ms, row.karousos_p50_ms, row.karousos_p99_ms,
                  row.karousos_rps);
      if (row.baseline_overhead_seconds > 0 && row.overhead_seconds > 0) {
        std::printf("   (overhead %.2fx lower than baseline)",
                    row.baseline_overhead_seconds / row.overhead_seconds);
      }
      std::printf("\n");
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"fig6_server_overhead\",\n  \"requests\": %zu,\n"
               "  \"warmup\": %zu,\n  \"reps\": %d,\n  \"rows\": [\n",
               kRequests, kWarmup, reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"app\": \"%s\", \"concurrency\": %d, \"off_seconds\": %.6f, "
                 "\"karousos_seconds\": %.6f, \"overhead_seconds\": %.6f, \"ratio\": %.4f, "
                 "\"off_p50_ms\": %.4f, \"off_p99_ms\": %.4f, \"karousos_p50_ms\": %.4f, "
                 "\"karousos_p99_ms\": %.4f, \"off_rps\": %.0f, \"karousos_rps\": %.0f",
                 r.app.c_str(), r.concurrency, r.off_seconds, r.karousos_seconds,
                 r.overhead_seconds, r.ratio, r.off_p50_ms, r.off_p99_ms, r.karousos_p50_ms,
                 r.karousos_p99_ms, r.off_rps, r.karousos_rps);
    if (r.baseline_overhead_seconds > 0 && r.overhead_seconds > 0) {
      std::fprintf(out,
                   ", \"baseline_overhead_seconds\": %.6f, \"overhead_speedup\": %.3f",
                   r.baseline_overhead_seconds,
                   r.baseline_overhead_seconds / r.overhead_seconds);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
