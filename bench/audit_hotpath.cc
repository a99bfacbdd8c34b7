// Audit hot-path benchmark: serves one workload per app (motd / stacks /
// wiki, 600 requests each), then audits the same (trace, advice) pair at
// threads ∈ {1, 4}, reporting the per-phase breakdown the built-in profiler
// (src/common/prof.h) collects — Preprocess / ReExec / Postprocess seconds —
// plus deduplicated ops/sec. It times the one audit path: AuditOnly feeds
// each run through the epoch stream as one epoch of kDefaultEpochRequests,
// so `seconds` includes the stream's end-of-epoch fold and Finish, and
// Preprocess covers every Figure 14 check wherever it runs (the static
// rules and isolation at Finish too). The threads=1 rows are the serial hot-path
// numbers the PR-over-PR speedup tracking keys on.
//
// Usage: audit_hotpath [output.json] [--compare baseline.json]
//
// With --compare, each row additionally carries baseline_seconds and
// speedup_vs_baseline, joined against the baseline file's (app, threads)
// rows. tools/bench_diff.py performs the same join for any two BENCH files.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/audit/audit.h"
#include "src/common/pool.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  std::string app;
  unsigned threads = 0;
  size_t groups = 0;
  size_t ops_executed = 0;
  double seconds = 0;
  double preprocess_seconds = 0;
  double reexec_seconds = 0;
  double postprocess_seconds = 0;
  double ops_per_second = 0;
  double baseline_seconds = 0;  // 0 = no baseline row matched.
};

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_audit_hotpath.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = 600;
  const int kReps = 3;
  const std::vector<unsigned> sweep = {1, 4};
  // Baseline rows are keyed by (app, threads); seconds is the total audit time.
  std::vector<Value> baseline;
  if (!baseline_path.empty()) {
    baseline = bench::LoadBaselineRows(baseline_path);
  }

  std::printf("=== Audit hot path: per-phase breakdown ===\n");
  std::printf("(%u hardware threads; %zu requests per app; medians of %d reps)\n",
              WorkStealingPool::ResolveThreads(0), kRequests, kReps);

  std::vector<Row> rows;
  for (const std::string& name : {std::string("motd"), std::string("stacks"),
                                  std::string("wiki")}) {
    WorkloadConfig wl;
    wl.app = name;
    wl.kind = name == "wiki" ? WorkloadKind::kWikiMix : WorkloadKind::kMixed;
    wl.requests = kRequests;
    wl.seed = 7;
    wl.connections = 15;
    std::vector<Value> inputs = GenerateWorkload(wl);

    AppSpec app = MakeApp(name).value();
    ServerConfig config;
    config.concurrency = 15;
    config.seed = 7;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);

    std::printf("\n[%s] %zu requests\n", name.c_str(), inputs.size());
    std::printf("%8s %10s %9s %9s %9s %12s\n", "threads", "audit (s)", "pre (s)", "reexec",
                "post", "ops/sec");
    for (unsigned threads : sweep) {
      std::vector<double> times;
      AuditResult best;  // The rep whose total matches the median closest.
      double best_delta = 1e18;
      double median = 0;
      std::vector<AuditResult> reps;
      for (int rep = 0; rep < kReps; ++rep) {
        AppSpec fresh = MakeApp(name).value();
        AuditResult audit = AuditOnly(fresh, run.trace, run.advice,
                                      VerifierConfig{IsolationLevel::kSerializable, threads});
        if (!audit.accepted) {
          std::fprintf(stderr, "BUG: audit rejected at threads=%u: %s\n", threads,
                       audit.reason.c_str());
          return 1;
        }
        times.push_back(audit.profile.total_seconds);
        reps.push_back(std::move(audit));
      }
      median = bench::Median(times);
      for (AuditResult& audit : reps) {
        double delta = std::abs(audit.profile.total_seconds - median);
        if (delta < best_delta) {
          best_delta = delta;
          best = std::move(audit);
        }
      }
      Row row;
      row.app = name;
      row.threads = threads;
      row.groups = best.stats.groups;
      row.ops_executed = best.stats.ops_executed;
      row.seconds = best.profile.total_seconds;
      row.preprocess_seconds = best.profile.preprocess_seconds;
      row.reexec_seconds = best.profile.reexec_seconds;
      row.postprocess_seconds = best.profile.postprocess_seconds;
      row.ops_per_second = best.profile.OpsPerSecond();
      for (const Value& b : baseline) {
        if (b.Field("app").StringOr("") == row.app &&
            b.Field("threads").IntOr(0) == static_cast<int64_t>(row.threads)) {
          row.baseline_seconds = bench::NumberField(b, "seconds");
        }
      }
      rows.push_back(row);
      std::printf("%8u %10.4f %9.4f %9.4f %9.4f %12.0f", threads, row.seconds,
                  row.preprocess_seconds, row.reexec_seconds, row.postprocess_seconds,
                  row.ops_per_second);
      if (row.baseline_seconds > 0 && row.seconds > 0) {
        std::printf("   (%.2fx vs baseline)", row.baseline_seconds / row.seconds);
      }
      std::printf("\n");
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"audit_hotpath\",\n  \"requests\": %zu,\n"
                    "  \"hardware_threads\": %u,\n  \"rows\": [\n",
               kRequests, WorkStealingPool::ResolveThreads(0));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"app\": \"%s\", \"threads\": %u, \"groups\": %zu, "
                 "\"ops_executed\": %zu, \"seconds\": %.6f, "
                 "\"preprocess_seconds\": %.6f, \"reexec_seconds\": %.6f, "
                 "\"postprocess_seconds\": %.6f, \"ops_per_second\": %.0f",
                 r.app.c_str(), r.threads, r.groups, r.ops_executed, r.seconds,
                 r.preprocess_seconds, r.reexec_seconds, r.postprocess_seconds,
                 r.ops_per_second);
    if (r.baseline_seconds > 0 && r.seconds > 0) {
      std::fprintf(out, ", \"baseline_seconds\": %.6f, \"speedup_vs_baseline\": %.3f",
                   r.baseline_seconds, r.baseline_seconds / r.seconds);
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
