// Auction contention benchmark: what does hot-key skew cost to record and to
// audit?
//
// Serves the auction app over the kAuctionMix workload at Zipf theta in
// {0, 0.9, 1.2} (uniform -> hot -> extreme skew over 4 items) and reports per
// theta (median of reps): the transaction abort rate under contention, the
// record overhead of the Karousos collector versus the uninstrumented server
// on the identical input stream, and the serialized audit time. Every audited
// run must be accepted — this benchmark measures honest executions.
//
// Usage: auction_contention [output.json] [--quick]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/app.h"
#include "src/audit/audit.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  double zipf_theta = 0;
  size_t requests = 0;
  size_t conflicts = 0;
  double abort_rate = 0;
  double serve_off_seconds = 0;
  double serve_karousos_seconds = 0;
  double record_overhead_ratio = 0;
  double audit_seconds = 0;
  bool accepted = false;
};

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_auction_contention.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = quick ? 150 : 600;
  const int kConcurrency = 12;
  const int kReps = quick ? 1 : 3;

  std::printf("=== Auction contention: abort rate, record overhead, audit time vs skew ===\n");
  std::printf("(auction, %zu requests, concurrency %d, 4 items)\n", kRequests, kConcurrency);
  std::printf("%-6s %10s %11s %10s %14s %10s %10s\n", "theta", "conflicts", "abort rate",
              "off (s)", "karousos (s)", "overhead", "audit (s)");

  std::vector<Row> rows;
  for (double theta : {0.0, 0.9, 1.2}) {
    WorkloadConfig wl;
    wl.app = "auction";
    wl.kind = WorkloadKind::kAuctionMix;
    wl.requests = kRequests;
    wl.seed = 7;
    wl.connections = kConcurrency;
    wl.zipf_theta = theta;
    wl.hot_items = 4;
    std::vector<Value> inputs = GenerateWorkload(wl);

    std::vector<double> off_times, on_times, audit_times;
    Row row;
    row.zipf_theta = theta;
    row.requests = kRequests;
    for (int rep = 0; rep < kReps; ++rep) {
      AppSpec off_app = MakeAuctionApp();
      ServerConfig off_config;
      off_config.mode = CollectMode::kOff;
      off_config.concurrency = kConcurrency;
      off_config.seed = 7;
      Server off_server(*off_app.program, off_config);
      double t0 = bench::Now();
      ServerRunResult off_run = off_server.Run(inputs);
      off_times.push_back(bench::Now() - t0);
      (void)off_run;

      AppSpec app = MakeAuctionApp();
      ServerConfig config;
      config.concurrency = kConcurrency;
      config.seed = 7;
      Server server(*app.program, config);
      t0 = bench::Now();
      ServerRunResult run = server.Run(inputs);
      on_times.push_back(bench::Now() - t0);
      row.conflicts = run.conflicts;

      VerifierConfig audit_config{IsolationLevel::kSerializable, 1};
      t0 = bench::Now();
      AuditResult audit = AuditOnly(app, run.trace, run.advice, audit_config);
      audit_times.push_back(bench::Now() - t0);
      row.accepted = audit.accepted;
      if (!audit.accepted) {
        std::fprintf(stderr, "BUG: audit rejected the honest run at theta %.1f: %s\n", theta,
                     audit.reason.c_str());
        return 1;
      }
    }
    row.abort_rate = static_cast<double>(row.conflicts) / static_cast<double>(kRequests);
    row.serve_off_seconds = bench::Median(off_times);
    row.serve_karousos_seconds = bench::Median(on_times);
    row.record_overhead_ratio = row.serve_karousos_seconds / row.serve_off_seconds;
    row.audit_seconds = bench::Median(audit_times);
    rows.push_back(row);
    std::printf("%-6.1f %10zu %10.3f %10.4f %14.4f %9.2fx %10.4f\n", theta, row.conflicts,
                row.abort_rate, row.serve_off_seconds, row.serve_karousos_seconds,
                row.record_overhead_ratio, row.audit_seconds);
  }

  // Sanity on the claim under reproduction: skew concentrates bids on fewer
  // items, so conflicts must not *decrease* from uniform to extreme skew.
  if (rows.back().conflicts < rows.front().conflicts) {
    std::fprintf(stderr, "BUG: extreme skew produced fewer conflicts (%zu) than uniform (%zu)\n",
                 rows.back().conflicts, rows.front().conflicts);
    return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"auction_contention\",\n  \"app\": \"auction\",\n"
               "  \"requests\": %zu,\n  \"concurrency\": %d,\n  \"hot_items\": 4,\n"
               "  \"rows\": [\n",
               kRequests, kConcurrency);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"zipf_theta\": %.1f, \"conflicts\": %zu, \"abort_rate\": %.4f, "
                 "\"serve_off_seconds\": %.6f, \"serve_karousos_seconds\": %.6f, "
                 "\"record_overhead_ratio\": %.4f, \"audit_seconds\": %.6f, "
                 "\"accepted\": %s}%s\n",
                 r.zipf_theta, r.conflicts, r.abort_rate, r.serve_off_seconds,
                 r.serve_karousos_seconds, r.record_overhead_ratio, r.audit_seconds,
                 r.accepted ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
