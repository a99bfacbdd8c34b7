#include "pipeline_bench/workloads.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/ids.h"

namespace pipeline_bench {

using karousos::Value;

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec stacks;
  stacks.name = "stacks-stream";
  stacks.app = "stacks";
  stacks.make_app = karousos::MakeStacksApp;
  stacks.kind = karousos::WorkloadKind::kMixed;
  stacks.requests = 1500;
  stacks.concurrency = 15;
  stacks.path = AuditPath::kStream;
  stacks.audit_threads = 2;
  out.push_back(stacks);

  WorkloadSpec motd;
  motd.name = "motd-wire";
  motd.app = "motd";
  motd.make_app = karousos::MakeMotdApp;
  motd.kind = karousos::WorkloadKind::kReadHeavy;
  motd.requests = 20000;
  motd.concurrency = 8;
  motd.path = AuditPath::kOneShot;
  motd.audit_threads = 1;
  out.push_back(motd);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

// Input-only quantities that a stacks run's cost tracks: the stack-dump index
// every submit and every list touches grows with the distinct dumps reported
// so far, so the sums of its size over submits and over lists, plus the list
// and distinct-dump counts, predict advice bytes and audit time.
std::vector<double> StacksShape(const std::vector<Value>& inputs) {
  std::set<std::string> dumps;
  double submit_index = 0;
  double list_index = 0;
  double lists = 0;
  for (const Value& in : inputs) {
    const std::string op = in.Field("op").StringOr("");
    if (op == "submit") {
      dumps.insert(in.Field("dump").StringOr(""));
      submit_index += static_cast<double>(dumps.size());
    } else if (op == "list") {
      lists += 1;
      list_index += static_cast<double>(dumps.size());
    }
  }
  return {submit_index, list_index, lists, static_cast<double>(dumps.size())};
}

double MaxRelativeDistance(const std::vector<double>& shape, const std::vector<double>& nominal) {
  double worst = 0;
  for (size_t i = 0; i < shape.size(); ++i) {
    worst = std::max(worst, std::fabs(shape[i] / nominal[i] - 1.0));
  }
  return worst;
}

// The nominal stacks shape at a size: the per-quantity median over a fixed
// calibration set of streams, the same in every run.
std::vector<double> NominalStacksShape(const WorkloadSpec& spec, size_t requests) {
  constexpr size_t kCalibration = 63;
  std::vector<std::vector<double>> columns(4);
  for (uint64_t i = 0; i < kCalibration; ++i) {
    std::vector<double> shape = StacksShape(karousos::GenerateWorkload(
        MakeWorkloadConfig(spec, requests, karousos::HashMix64(0xca11b4a7e, i))));
    for (size_t c = 0; c < shape.size(); ++c) columns[c].push_back(shape[c]);
  }
  std::vector<double> nominal;
  for (std::vector<double>& column : columns) {
    std::nth_element(column.begin(), column.begin() + kCalibration / 2, column.end());
    nominal.push_back(column[kCalibration / 2]);
  }
  return nominal;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

karousos::WorkloadConfig MakeWorkloadConfig(const WorkloadSpec& spec, size_t requests,
                                            uint64_t seed) {
  karousos::WorkloadConfig config;
  config.app = spec.app;
  config.kind = spec.kind;
  config.requests = requests;
  config.seed = seed;
  config.connections = spec.concurrency;
  return config;
}

// Stratified draw. A stacks stream swings its cost by 2x from one generator
// seed to the next, because the stack-dump index grows superlinearly.
// Drawing candidates from --seed and keeping the first one of nominal shape
// keeps the inputs a function of --seed while the run-to-run spread
// measures the code rather than the draw. Other apps take the first
// candidate.
DrawnInputs DrawInputs(const WorkloadSpec& spec, size_t requests, uint64_t seed) {
  constexpr double kStacksTolerance = 0.02;
  const bool stacks = spec.app == "stacks";
  const size_t max_candidates = stacks ? 2000 : 1;
  std::vector<double> nominal;
  if (stacks) nominal = NominalStacksShape(spec, requests);

  DrawnInputs best;
  best.deviation = INFINITY;
  for (uint64_t k = 0; k < max_candidates; ++k) {
    const uint64_t candidate = karousos::HashMix64(seed, k);
    std::vector<Value> inputs =
        karousos::GenerateWorkload(MakeWorkloadConfig(spec, requests, candidate));
    const double deviation = stacks ? MaxRelativeDistance(StacksShape(inputs), nominal) : 0;
    if (deviation < best.deviation) {
      best.workload_seed = candidate;
      best.deviation = deviation;
      best.inputs = std::move(inputs);
    }
    best.candidates = k + 1;
    if (best.deviation <= kStacksTolerance) break;
  }
  return best;
}

}  // namespace pipeline_bench
