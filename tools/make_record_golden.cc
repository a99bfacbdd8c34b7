// Regenerates the record-path wire-format golden fixtures
// (tests/fixtures/record_golden/). Run manually ONLY on an intentional wire
// format change; the committed fixtures pin the advice and segment bytes the
// collector produced before the streaming AdviceBuilder rewrite, and
// tests/advice_golden_test.cc fails if the rewritten record path ever drifts
// from them.
//
// Usage: make_record_golden <output-dir>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/common/file_io.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  if (!WriteFileBytes(path, bytes)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("  %s: %zu bytes\n", path.c_str(), bytes.size());
  return true;
}

// One fixture workload per app family; small enough to commit, concurrent
// enough (connections > 1) that the advice contains R-concurrent log entries,
// back-filled writes, nondeterminism records, and multi-epoch references.
struct FixtureSpec {
  const char* name;
  const char* app;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t epoch_requests;  // For the segment-stream fixtures.
};

constexpr FixtureSpec kFixtures[] = {
    {"stacks120", "stacks", WorkloadKind::kMixed, 120, 10, 7},
    {"motd60", "motd", WorkloadKind::kWriteHeavy, 60, 6, 13},
    // Hot-key contention: aborted transactions, retries, and cross-epoch
    // transaction windows in the advice bytes.
    {"auction90", "auction", WorkloadKind::kAuctionMix, 90, 12, 9},
};

int Main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  for (const FixtureSpec& spec : kFixtures) {
    WorkloadConfig wl;
    wl.app = spec.app;
    wl.kind = spec.kind;
    wl.requests = spec.requests;
    wl.seed = 7;
    wl.connections = spec.concurrency;
    std::vector<Value> inputs = GenerateWorkload(wl);

    AppSpec app = MakeApp(spec.app).value();
    ServerConfig config;
    config.concurrency = spec.concurrency;
    config.seed = 7;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);

    std::printf("[%s] %zu requests, %zu var log entries\n", spec.name, inputs.size(),
                run.var_log_entries);
    ByteWriter advice_bytes;
    run.advice.Serialize(&advice_bytes);
    ByteWriter trace_bytes;
    run.trace.Serialize(&trace_bytes);
    EpochSlices slices = SliceRunOwned(run.trace, std::move(run.advice), spec.epoch_requests);
    const std::string base = dir + "/" + spec.name;
    if (!WriteFile(base + ".advice", advice_bytes.bytes()) ||
        !WriteFile(base + ".trace", trace_bytes.bytes()) ||
        !WriteFile(base + ".advice_segments", EncodeAdviceSegments(slices)) ||
        !WriteFile(base + ".trace_segments", EncodeTraceSegments(slices))) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
