// Static-check overhead benchmark: what does the streaming model checker
// cost, standalone and as the audit's fast-reject pre-screen?
//
// Serves stacks at 600 requests, then at epoch sizes {1, 50, 0=∞} measures
// (fastest of 5): the standalone checker pass (CheckRun) and the full
// streamed audit, which always runs the pre-screen; both must pass the
// honest run. Final rows replay the KSEG mutation corpora (the fuzzer's stacks and
// auction seed families) through the standalone checker alone and report the
// fraction rejected without any re-execution.
//
// Usage: check_overhead [output.json] [--quick]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/check.h"
#include "src/analysis/kseg_mutate.h"
#include "src/analysis/shard_mutate.h"
#include "src/audit/stream.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct Row {
  uint64_t epoch_size = 0;
  uint64_t epochs = 0;
  double check_seconds = 0;
  double check_per_epoch_ms = 0;
  double audit_seconds = 0;
  bool accepted = false;
};

// The audited work is deterministic and CPU-bound, so the fastest rep is the
// closest estimate of its true cost on a shared 1-core box.
double MinOf(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

ServerRunResult Serve(const AppSpec& app, const char* name, WorkloadKind kind, size_t requests,
                      int concurrency) {
  WorkloadConfig wl;
  wl.app = name;
  wl.kind = kind;
  wl.requests = requests;
  wl.seed = 7;
  wl.connections = concurrency;
  ServerConfig config;
  config.concurrency = concurrency;
  config.seed = 7;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

struct FuzzCatch {
  size_t mutations = 0;
  size_t caught = 0;
  double fraction = 0;
};

// Static-catch fraction over a mutation corpus (checker alone, no replay).
FuzzCatch MeasureStaticCatch(const ServerRunResult& run, uint64_t epoch_size) {
  std::vector<KsegMutation> corpus = BuildMutationCorpus(run.trace, run.advice, epoch_size);
  FuzzCatch result;
  result.mutations = corpus.size();
  for (const KsegMutation& m : corpus) {
    if (!CheckSegmentStreams(m.trace_bytes, m.advice_bytes, epoch_size).ok) {
      ++result.caught;
    }
  }
  result.fraction = corpus.empty()
                        ? 0.0
                        : static_cast<double>(result.caught) / static_cast<double>(corpus.size());
  return result;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_check_overhead.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = quick ? 120 : 600;
  const int kReps = quick ? 1 : 5;

  AppSpec app = MakeStacksApp();
  ServerRunResult run = Serve(app, "stacks", WorkloadKind::kMixed, kRequests, 15);

  std::printf("=== Static model check: cost per epoch vs full audit ===\n");
  std::printf("(stacks, %zu requests)\n", kRequests);
  std::printf("%-10s %7s %11s %13s %11s\n", "epoch size", "epochs", "check (s)",
              "per-epoch ms", "audit (s)");

  std::vector<Row> rows;
  for (uint64_t epoch_size : {uint64_t{1}, uint64_t{50}, uint64_t{0}}) {
    std::vector<double> check_times, audit_times;
    CheckResult check;
    StreamAuditResult audit;
    for (int rep = 0; rep < kReps; ++rep) {
      double t0 = bench::Now();
      check = CheckRun(run.trace, run.advice, epoch_size);
      check_times.push_back(bench::Now() - t0);

      t0 = bench::Now();
      audit = AuditStreamed(app, run.trace, run.advice,
                            VerifierConfig{IsolationLevel::kSerializable, 1}, epoch_size);
      audit_times.push_back(bench::Now() - t0);
    }
    if (!check.ok) {
      std::fprintf(stderr, "BUG: honest run failed the model check: %s\n", check.reason.c_str());
      return 1;
    }
    if (!audit.audit.accepted) {
      std::fprintf(stderr, "BUG: audit rejected the honest run: %s\n",
                   audit.audit.reason.c_str());
      return 1;
    }

    Row row;
    row.epoch_size = epoch_size;
    row.epochs = check.epochs;
    row.check_seconds = MinOf(check_times);
    row.check_per_epoch_ms = 1e3 * row.check_seconds / static_cast<double>(check.epochs);
    row.audit_seconds = MinOf(audit_times);
    row.accepted = audit.audit.accepted;
    rows.push_back(row);
    std::printf("%-10llu %7llu %11.4f %13.4f %11.4f\n",
                static_cast<unsigned long long>(epoch_size),
                static_cast<unsigned long long>(row.epochs), row.check_seconds,
                row.check_per_epoch_ms, row.audit_seconds);
  }

  // Static-catch fractions over the two fuzz corpora (checker alone, no
  // replay); sized like tools/kseg_fuzz.cc so the corpora match the fuzzer's
  // seed families.
  ServerRunResult fuzz_run =
      quick ? std::move(run) : Serve(app, "stacks", WorkloadKind::kMixed, 63, 6);
  FuzzCatch stacks_catch = MeasureStaticCatch(fuzz_run, 7);
  std::printf("\nfuzz corpus [stacks]: %zu mutations, %zu caught statically (%.1f%%)\n",
              stacks_catch.mutations, stacks_catch.caught, 100.0 * stacks_catch.fraction);

  AppSpec auction_app = MakeAuctionApp();
  ServerRunResult auction_run =
      Serve(auction_app, "auction", WorkloadKind::kAuctionMix, 72, 12);
  FuzzCatch auction_catch = MeasureStaticCatch(auction_run, 8);
  std::printf("fuzz corpus [auction]: %zu mutations, %zu caught statically (%.1f%%)\n",
              auction_catch.mutations, auction_catch.caught, 100.0 * auction_catch.fraction);

  // Shard-axis corpus (src/analysis/shard_mutate.h): fraction of shard
  // file/boundary/artifact mutations rejected with a KAR-SEG rule by the
  // load/merge structural layer.
  FuzzCatch shard_catch;
  for (const ShardMutationOutcome& o :
       RunShardMutationCorpus(*app.program, fuzz_run.trace, fuzz_run.advice, 7,
                              ShardSpec{2, ShardMode::kHash})) {
    if (o.name.rfind("control:", 0) == 0) {
      continue;
    }
    ++shard_catch.mutations;
    if (o.rejected && !o.rule.empty()) {
      ++shard_catch.caught;
    }
  }
  shard_catch.fraction = shard_catch.mutations == 0
                             ? 0.0
                             : static_cast<double>(shard_catch.caught) /
                                   static_cast<double>(shard_catch.mutations);
  std::printf("fuzz corpus [shard]: %zu mutations, %zu caught statically (%.1f%%)\n",
              shard_catch.mutations, shard_catch.caught, 100.0 * shard_catch.fraction);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"check_overhead\",\n  \"app\": \"stacks\",\n"
               "  \"requests\": %zu,\n  \"rows\": [\n",
               kRequests);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"epoch_size\": %llu, \"epochs\": %llu, \"check_seconds\": %.6f, "
                 "\"check_per_epoch_ms\": %.6f, \"audit_seconds\": %.6f, "
                 "\"accepted\": %s}%s\n",
                 static_cast<unsigned long long>(r.epoch_size),
                 static_cast<unsigned long long>(r.epochs), r.check_seconds,
                 r.check_per_epoch_ms, r.audit_seconds, r.accepted ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"fuzz_static_catch\": {\"mutations_total\": %zu, "
               "\"mutations_caught_static\": %zu, \"static_catch_fraction\": %.4f},\n"
               "  \"fuzz_static_catch_auction\": {\"mutations_total\": %zu, "
               "\"mutations_caught_static\": %zu, \"static_catch_fraction\": %.4f},\n"
               "  \"fuzz_static_catch_shard\": {\"mutations_total\": %zu, "
               "\"mutations_caught_static\": %zu, \"static_catch_fraction\": %.4f}\n}\n",
               stacks_catch.mutations, stacks_catch.caught, stacks_catch.fraction,
               auction_catch.mutations, auction_catch.caught, auction_catch.fraction,
               shard_catch.mutations, shard_catch.caught, shard_catch.fraction);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
