// One benchmark run: rounds of record -> wire -> store -> audit over one
// workload, the tamper control, and (traced runs) the per-layer probe.
#ifndef PIPELINE_BENCH_PIPELINE_H_
#define PIPELINE_BENCH_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline_bench/spawn.h"

namespace pipeline_bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string karousos;  // Path of the karousos CLI binary.
  std::string work_dir;  // Temporary files; the caller removes it.
  std::string out_dir;   // Span files of traced runs.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  // One line per failed operation kind.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;     // Human-readable lines printed before the result.
};

Report RunBenchmark(const Options& options, Launcher* launcher);

}  // namespace pipeline_bench

#endif  // PIPELINE_BENCH_PIPELINE_H_
