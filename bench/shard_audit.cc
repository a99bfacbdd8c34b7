// Sharded scale-out audit benchmark: real processes, real files.
//
// Serves stacks once through the CLI, then for each shard count K partitions
// the run (`karousos shard`), audits the K shard files as K concurrently
// fork/exec'd `karousos audit-shard` processes, and merges their verdict
// artifacts (`karousos audit-merge`). Per-process peak RSS comes from
// wait4()'s ru_maxrss — the kernel's number for the whole child, not an
// in-process estimate.
//
// The gate (enforced here and by tools/bench_diff.py over the JSON): at K=4
// the per-shard-process peak RSS must stay below the peak RSS of the
// unsharded `karousos audit` process over the same monolithic files — the
// whole point of the shard axis is that each worker holds ~1/K of the
// advice-derived state. Wall-clock totals are recorded (hardware-dependent),
// not gated.
//
// Usage: shard_audit [output.json] [--quick] [--karousos-bin PATH]
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

#ifndef KAROUSOS_CLI_DEFAULT
#define KAROUSOS_CLI_DEFAULT "tools/karousos"
#endif

using karousos::bench::Now;

struct ChildResult {
  int exit_code = -1;
  double seconds = 0;
  double max_rss_mb = 0;
};

pid_t Launch(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid == 0) {
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      close(devnull);
    }
    execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
  return pid;
}

ChildResult Await(pid_t pid, double t0) {
  ChildResult r;
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (wait4(pid, &status, 0, &ru) != pid) {
    return r;
  }
  r.seconds = Now() - t0;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
  return r;
}

ChildResult RunChild(const std::vector<std::string>& args) {
  double t0 = Now();
  return Await(Launch(args), t0);
}

bool Check(const ChildResult& r, const char* what) {
  if (r.exit_code != 0) {
    std::fprintf(stderr, "BUG: %s exited %d\n", what, r.exit_code);
    return false;
  }
  return true;
}

struct KRow {
  uint32_t k = 0;
  double shard_seconds = 0;          // `karousos shard` (partitioning).
  double audit_parallel_seconds = 0; // Launch of first child -> exit of last.
  double merge_seconds = 0;
  double shard_peak_rss_mb = 0;      // Max over the K audit-shard processes.
  double merge_peak_rss_mb = 0;
};

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_shard_audit.json";
  std::string bin = KAROUSOS_CLI_DEFAULT;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--karousos-bin") == 0 && i + 1 < argc) {
      bin = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = quick ? 300 : 1500;
  const uint64_t kEpochSize = 50;
  const std::vector<uint32_t> ks = quick ? std::vector<uint32_t>{1, 4}
                                         : std::vector<uint32_t>{1, 2, 4, 8};

  namespace fs = std::filesystem;
  fs::path dir = fs::path("bench_shard_audit.tmp");
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string trace = (dir / "trace.bin").string();
  const std::string advice = (dir / "advice.bin").string();

  std::printf("=== Sharded scale-out audit: K processes vs unsharded ===\n");
  std::printf("(stacks, %zu requests, epoch size %llu, bin %s)\n", kRequests,
              static_cast<unsigned long long>(kEpochSize), bin.c_str());

  ChildResult serve = RunChild({bin, "serve", "--app", "stacks", "--requests",
                                std::to_string(kRequests), "--concurrency", "15", "--seed", "7",
                                "--out-trace", trace, "--out-advice", advice});
  if (!Check(serve, "serve")) {
    return 1;
  }

  // Oracle process: the unsharded audit of the monolithic files (no
  // --epoch-size, so at the default epoch size) — the RSS bar every shard
  // process must come in under.
  ChildResult unsharded =
      RunChild({bin, "audit", "--app", "stacks", "--trace", trace, "--advice", advice});
  if (!Check(unsharded, "unsharded audit")) {
    return 1;
  }
  std::printf("unsharded audit (monolithic files): %.3f s, peak RSS %.1f MB\n",
              unsharded.seconds, unsharded.max_rss_mb);
  std::printf("%-4s %10s %12s %10s %14s %14s\n", "K", "shard (s)", "audits (s)", "merge (s)",
              "shard RSS MB", "merge RSS MB");

  std::vector<KRow> rows;
  for (uint32_t k : ks) {
    fs::path shard_dir = dir / ("k" + std::to_string(k));
    fs::create_directories(shard_dir);

    KRow row;
    row.k = k;
    ChildResult shard = RunChild({bin, "shard", "--trace", trace, "--advice", advice,
                                  "--shards", std::to_string(k), "--epoch-size",
                                  std::to_string(kEpochSize), "--out-dir", shard_dir.string()});
    if (!Check(shard, "shard")) {
      return 1;
    }
    row.shard_seconds = shard.seconds;

    // Launch all K audit-shard processes before reaping any: the wall-clock
    // is the parallel span, the RSS numbers are per process regardless.
    double t0 = Now();
    std::vector<pid_t> pids;
    std::vector<std::string> artifacts;
    for (uint32_t i = 0; i < k; ++i) {
      std::string file = (shard_dir / ("shard" + std::to_string(i) + ".kseg")).string();
      std::string artifact = (shard_dir / ("shard" + std::to_string(i) + ".artifact")).string();
      artifacts.push_back(artifact);
      pids.push_back(Launch({bin, "audit-shard", "--app", "stacks", "--shard-file", file,
                             "--out", artifact}));
    }
    for (uint32_t i = 0; i < k; ++i) {
      ChildResult r = Await(pids[i], t0);
      if (!Check(r, "audit-shard")) {
        return 1;
      }
      row.shard_peak_rss_mb = std::max(row.shard_peak_rss_mb, r.max_rss_mb);
    }
    row.audit_parallel_seconds = Now() - t0;

    ChildResult merge =
        RunChild({bin, "audit-merge", "--in-dir", shard_dir.string()});
    if (!Check(merge, "audit-merge")) {
      return 1;
    }
    row.merge_seconds = merge.seconds;
    row.merge_peak_rss_mb = merge.max_rss_mb;
    rows.push_back(row);
    std::printf("%-4u %10.3f %12.3f %10.3f %14.1f %14.1f\n", k, row.shard_seconds,
                row.audit_parallel_seconds, row.merge_seconds, row.shard_peak_rss_mb,
                row.merge_peak_rss_mb);
  }

  const KRow* gate_row = nullptr;
  for (const KRow& row : rows) {
    if (row.k == 4) {
      gate_row = &row;
    }
  }
  int rc = 0;
  if (gate_row == nullptr) {
    std::fprintf(stderr, "BUG: no K=4 row to gate on\n");
    rc = 1;
  } else if (gate_row->shard_peak_rss_mb >= unsharded.max_rss_mb) {
    std::fprintf(stderr,
                 "GATE FAIL: K=4 per-shard peak RSS %.1f MB >= unsharded %.1f MB\n",
                 gate_row->shard_peak_rss_mb, unsharded.max_rss_mb);
    rc = 1;
  } else {
    std::printf("gate: K=4 per-shard peak RSS %.1f MB < unsharded %.1f MB (%.0f%%)\n",
                gate_row->shard_peak_rss_mb, unsharded.max_rss_mb,
                100.0 * gate_row->shard_peak_rss_mb / unsharded.max_rss_mb);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  double gate_rss = gate_row ? gate_row->shard_peak_rss_mb : 0.0;
  double gate_wall =
      gate_row ? gate_row->audit_parallel_seconds + gate_row->merge_seconds : 0.0;
  // The one_shot_* keys name the unsharded audit; they keep their names so
  // the committed baseline still diffs.
  std::fprintf(out,
               "{\n  \"benchmark\": \"shard_audit\",\n  \"app\": \"stacks\",\n"
               "  \"requests\": %zu,\n  \"epoch_size\": %llu,\n"
               "  \"one_shot_peak_rss_mb\": %.2f,\n  \"one_shot_wallclock_s\": %.4f,\n"
               "  \"shard_peak_rss_mb\": %.2f,\n  \"shard_wallclock_s\": %.4f,\n"
               "  \"rows\": [\n",
               kRequests, static_cast<unsigned long long>(kEpochSize), unsharded.max_rss_mb,
               unsharded.seconds, gate_rss, gate_wall);
  for (size_t i = 0; i < rows.size(); ++i) {
    const KRow& r = rows[i];
    std::fprintf(out,
                 "    {\"k\": %u, \"shard_seconds\": %.4f, \"audit_parallel_seconds\": %.4f, "
                 "\"merge_seconds\": %.4f, \"shard_peak_rss_mb\": %.2f, "
                 "\"merge_peak_rss_mb\": %.2f}%s\n",
                 r.k, r.shard_seconds, r.audit_parallel_seconds, r.merge_seconds,
                 r.shard_peak_rss_mb, r.merge_peak_rss_mb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  fs::remove_all(dir, ec);
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
