// Pipeline benchmark: one workload through client -> KWIRE -> record ->
// KSEG or monolithic storage -> audit processes, with every verdict checked.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --karousos <cli binary> --work-dir <dir> --out-dir <dir>
//
// Prints human-readable lines, then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (see README.md). Normally started by run.py, which builds
// this binary and the karousos CLI first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pipeline_bench/pipeline.h"
#include "pipeline_bench/spawn.h"
#include "pipeline_bench/workloads.h"

namespace pipeline_bench {
namespace {

int Usage() {
  std::string names;
  for (const std::string& name : WorkloadNames()) names += (names.empty() ? "" : "|") + name;
  std::fprintf(stderr,
               "usage: pipeline_bench --workload <%s> --seed N --seconds S --trace 0|1\n"
               "                      --karousos BIN --work-dir DIR --out-dir DIR\n",
               names.c_str());
  return 2;
}

// JSON number with every digit a double carries.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(Launcher* launcher, int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--karousos") {
      options.karousos = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || FindWorkload(options.workload) == nullptr || options.karousos.empty() ||
      options.work_dir.empty() || options.out_dir.empty()) {
    return Usage();
  }

  Report report = RunBenchmark(options, launcher);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const std::string& failure : report.failures) std::printf("FAILED: %s\n", failure.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i > 0 ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace pipeline_bench

int main(int argc, char** argv) {
  // Before anything is allocated: children forked later start small.
  pipeline_bench::Launcher launcher;
  return pipeline_bench::Main(&launcher, argc, argv);
}
