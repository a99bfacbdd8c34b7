// The benchmark's workloads and how each turns --seed into inputs.
#ifndef PIPELINE_BENCH_WORKLOADS_H_
#define PIPELINE_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/value.h"
#include "src/workload/workload.h"

namespace pipeline_bench {

// How the auditor receives and checks the recorded run.
enum class AuditPath : uint8_t {
  kStream,   // KSEG containers, `karousos audit --segments --epoch-size`.
  kOneShot,  // Monolithic trace/advice files, `karousos audit`.
};

// Every workload runs serializable, stores epochs of kEpochRequests
// requests, drives the wire with one closed-loop connection and a pipeline
// window of kWirePipeline, and (traced runs) probes the shard path with
// kShards hash shards.
constexpr uint64_t kEpochRequests = 50;
constexpr uint32_t kShards = 2;
constexpr size_t kWirePipeline = 8;

struct WorkloadSpec {
  std::string name;
  std::string app;  // karousos app name, also the CLI's --app.
  karousos::AppSpec (*make_app)() = nullptr;
  karousos::WorkloadKind kind = karousos::WorkloadKind::kMixed;
  size_t requests = 0;
  int concurrency = 1;
  AuditPath path = AuditPath::kStream;
  unsigned audit_threads = 1;
};
// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The request stream a run uses. Candidate streams come from
// GenerateWorkload with seeds derived from --seed; the first candidate whose
// shape matches the workload's nominal shape is taken (see workloads.cc).
struct DrawnInputs {
  uint64_t workload_seed = 0;
  size_t candidates = 0;   // Streams generated to find it.
  double deviation = 0;    // Largest relative distance from the nominal shape.
  std::vector<karousos::Value> inputs;
};

karousos::WorkloadConfig MakeWorkloadConfig(const WorkloadSpec& spec, size_t requests,
                                            uint64_t seed);
DrawnInputs DrawInputs(const WorkloadSpec& spec, size_t requests, uint64_t seed);

}  // namespace pipeline_bench

#endif  // PIPELINE_BENCH_WORKLOADS_H_
