// Helpers shared by the perf-guard benchmarks under bench/. Each one writes a
// BENCH_*.json that tools/bench_diff.py diffs against the committed baseline.
//
// Header-only: shard_audit links nothing from the karousos library, and an
// inline function it never calls (LoadBaselineRows) costs it nothing.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/json.h"

namespace karousos::bench {

// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The upper median (element size/2 after sorting) of a non-empty sample.
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// The p-quantile (p in [0, 1], rounded down to a rank) of a sample of
// seconds, in milliseconds; 0 for an empty sample.
inline double PercentileMs(std::vector<double> seconds, double p) {
  if (seconds.empty()) {
    return 0;
  }
  std::sort(seconds.begin(), seconds.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(seconds.size() - 1));
  return seconds[idx] * 1e3;
}

// The "rows" list of a BENCH_*.json file given to a benchmark's --compare. A
// missing or malformed file warns and yields no rows, so the compare is
// skipped rather than failing the run.
inline std::vector<Value> LoadBaselineRows(const std::string& path) {
  std::optional<FileBytes> bytes = ReadFileBytes(path);
  if (!bytes) {
    std::fprintf(stderr, "warning: cannot read baseline %s; skipping compare\n", path.c_str());
    return {};
  }
  JsonParseError error;
  std::optional<Value> doc =
      ParseJson(std::string(bytes->begin(), bytes->end()), &error);
  if (!doc || !doc->is_map()) {
    std::fprintf(stderr, "warning: malformed baseline %s; skipping compare\n", path.c_str());
    return {};
  }
  const Value& rows = doc->Field("rows");
  return rows.is_list() ? rows.AsList() : std::vector<Value>{};
}

// A numeric field of a baseline row, whether written as an integer or not.
inline double NumberField(const Value& row, const char* name) {
  const Value& v = row.Field(name);
  return v.is_double() ? v.AsDouble() : static_cast<double>(v.IntOr(0));
}

}  // namespace karousos::bench

#endif  // BENCH_BENCH_UTIL_H_
