#include "pipeline_bench/pipeline.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "pipeline_bench/spans.h"
#include "pipeline_bench/workloads.h"
#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/audit/audit.h"
#include "src/net/wire_server.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/verifier/session.h"
#include "src/verifier/shard_audit.h"
#include "src/workload/wire_load.h"
#include "src/workload/workload.h"

namespace pipeline_bench {
namespace {

namespace fs = std::filesystem;
using karousos::Value;
using Scope = SpanRecorder::Scope;

// Setup repetitions taken back to back after each phase of every round.
// setup_s is their median. A setup takes well under 10 ms, and on a shared
// host the speed of work that short shifts from one moment to the next, so
// samples spread over the whole run are steadier than one batch at one
// moment.
constexpr int kSetupBatch = 5;
constexpr int kMinRounds = 2;
// The instrumented server's throughput is taken after this share of the
// requests has been answered (§6.1 warms on the first 120 of 600).
constexpr size_t kWarmupDivisor = 5;

const karousos::KsegCompression kAllStages{true, true, true};

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Nearest-rank quantile of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size());
  return v[idx - 1];
}

// "p50 x" plus the highest of p90/p99/p99.9 with at least ten samples beyond it.
std::string Distribution(const std::vector<double>& v, const char* unit, double scale) {
  std::ostringstream out;
  out.precision(4);
  out << "median " << Median(v) * scale << " " << unit;
  double best = 0;
  for (double q : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(v.size()) * (1 - q) >= 10) best = q;
  }
  if (best > 0) {
    out << ", p" << best * 100 << " " << Quantile(v, best) * scale << " " << unit;
  } else {
    out << " (no percentile above the median has 10 samples beyond it)";
  }
  out << ", n=" << v.size();
  return out.str();
}

class Samples {
 public:
  void Add(const std::string& name, double value) { values_[name].push_back(value); }
  const std::vector<double>& Get(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = values_.find(name);
    return it == values_.end() ? kEmpty : it->second;
  }
  double Median(const std::string& name) const { return pipeline_bench::Median(Get(name)); }

 private:
  std::map<std::string, std::vector<double>> values_;
};

bool WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<std::vector<uint8_t>> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

std::string ReadText(const std::string& path) {
  std::optional<std::vector<uint8_t>> bytes = ReadBytes(path);
  return bytes ? std::string(bytes->begin(), bytes->end()) : std::string();
}

// The line of a CLI transcript that carries its verdict.
std::string VerdictLine(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string verdict;
  while (std::getline(in, line)) {
    if (line.find("ACCEPTED") != std::string::npos || line.find("REJECTED") != std::string::npos) {
      verdict = line;
    }
  }
  return verdict;
}

// Real memory: reset the kernel's peak-RSS mark to the current RSS (after
// handing freed heap back), then read the mark after the measured call.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::string Str(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Run state.

struct Ctx {
  Ctx(const Options& o, const WorkloadSpec& s, Launcher* l) : options(o), spec(s), launcher(l) {}

  // Counts `ops` operations; a miss fails `failed_ops` of them (all when 0).
  void Check(bool ok, const std::string& what, size_t ops = 1, size_t failed_ops = 0) {
    report.attempted += ops;
    if (!ok) Fail(what, failed_ops > 0 ? failed_ops : ops);
  }
  // Fails operations already counted.
  void Fail(const std::string& what, size_t ops = 1) {
    report.failed += ops;
    report.failures.push_back(what + " (" + Str(ops) + " operations)");
  }

  karousos::VerifierConfig AuditConfig() const {
    karousos::VerifierConfig config;
    config.threads = spec.audit_threads;
    return config;
  }

  karousos::ServerConfig RecordConfig(karousos::CollectMode mode, size_t requests) const {
    karousos::ServerConfig config;
    config.mode = mode;
    config.concurrency = spec.concurrency;
    config.seed = options.seed;  // --seed is also the scheduler seed.
    config.warmup_requests = requests / kWarmupDivisor;
    return config;
  }

  std::vector<std::string> Cli(std::initializer_list<std::string> args) const {
    std::vector<std::string> argv{options.karousos};
    argv.insert(argv.end(), args);
    return argv;
  }

  const Options& options;
  const WorkloadSpec& spec;
  Launcher* launcher;
  SpanRecorder spans;
  DrawnInputs drawn;
  Samples samples;
  std::vector<double> latencies;  // Every wire request of every round, seconds.
  Report report;
};

// ---------------------------------------------------------------------------
// Auditor processes.

struct AuditRun {
  bool ran = false;       // Every process exited 0 or 1 (a verdict).
  bool accepted = false;
  double wall_s = 0;      // Stored files to verdict.
  double peak_rss_mb = 0; // Largest per-process peak.
  double user_s = 0;
  double sys_s = 0;
  std::string verdict;
  // Shard path only.
  std::vector<double> shard_s;
  std::vector<double> shard_rss_mb;
  double merge_s = 0;
  size_t artifact_bytes = 0;
};

void Accumulate(const ChildUsage& u, AuditRun* run) {
  run->peak_rss_mb = std::max(run->peak_rss_mb, u.max_rss_mb);
  run->user_s += u.user_s;
  run->sys_s += u.sys_s;
}

// One `karousos audit` process; exit 0 is ACCEPTED, 1 REJECTED.
AuditRun AuditChild(Ctx& c, std::vector<std::string> input_args, const std::string& out) {
  Scope span(&c.spans, "audit.process");
  std::vector<std::string> argv = c.Cli({"audit", "--app", c.spec.app, "--threads",
                                         Str(c.spec.audit_threads)});
  argv.insert(argv.end(), input_args.begin(), input_args.end());
  const ChildUsage u = c.launcher->Run({argv, out});
  AuditRun run;
  run.ran = u.exit_code == 0 || u.exit_code == 1;
  run.accepted = u.exit_code == 0;
  run.wall_s = u.wall_s;
  run.verdict = VerdictLine(ReadText(out));
  Accumulate(u, &run);
  return run;
}

AuditRun AuditSegmentsChild(Ctx& c, const std::string& dir) {
  return AuditChild(c, {"--segments", dir, "--epoch-size", Str(kEpochRequests)},
                    dir + "/audit.out");
}

AuditRun AuditMonolithChild(Ctx& c, const std::string& trace, const std::string& advice,
                            const std::string& out) {
  return AuditChild(c, {"--trace", trace, "--advice", advice}, out);
}

// kShards concurrent `audit-shard` processes over dir/shard<i>.kseg, then
// `audit-merge` when every shard accepted. The slowest shard plus the merge
// is the time from the stored files to the verdict.
AuditRun AuditShardChildren(Ctx& c, const std::string& dir) {
  const uint32_t shards = kShards;
  Scope span(&c.spans, "audit.process");
  std::vector<ChildSpec> children;
  for (uint32_t i = 0; i < shards; ++i) {
    const std::string base = dir + "/shard" + Str(i);
    fs::remove(base + ".artifact");
    children.push_back({c.Cli({"audit-shard", "--app", c.spec.app, "--shard-file",
                               base + ".kseg", "--out", base + ".artifact", "--threads",
                               Str(c.spec.audit_threads)}),
                        base + ".out"});
  }
  AuditRun run;
  std::vector<ChildUsage> usage = c.launcher->RunAll(children);
  if (usage.size() != shards) return run;
  bool all_accepted = true;
  run.ran = true;
  for (uint32_t i = 0; i < shards; ++i) {
    run.ran = run.ran && (usage[i].exit_code == 0 || usage[i].exit_code == 1);
    all_accepted = all_accepted && usage[i].exit_code == 0;
    run.wall_s = std::max(run.wall_s, usage[i].wall_s);
    run.shard_s.push_back(usage[i].wall_s);
    run.shard_rss_mb.push_back(usage[i].max_rss_mb);
    Accumulate(usage[i], &run);
    if (usage[i].exit_code != 0) {
      run.verdict = VerdictLine(ReadText(dir + "/shard" + Str(i) + ".out"));
    }
  }
  if (!run.ran || !all_accepted) return run;
  for (uint32_t i = 0; i < shards; ++i) {
    std::error_code ec;
    run.artifact_bytes += fs::file_size(dir + "/shard" + Str(i) + ".artifact", ec);
  }
  const ChildUsage merge =
      c.launcher->Run({c.Cli({"audit-merge", "--in-dir", dir}), dir + "/merge.out"});
  run.ran = merge.exit_code == 0 || merge.exit_code == 1;
  run.accepted = merge.exit_code == 0;
  run.merge_s = merge.wall_s;
  run.wall_s += merge.wall_s;
  run.verdict = VerdictLine(ReadText(dir + "/merge.out"));
  Accumulate(merge, &run);
  return run;
}

// ---------------------------------------------------------------------------
// Stored forms of a recorded run, one per audit path.

struct Stored {
  std::string dir;
  size_t advice_bytes = 0;  // What the auditor reads as advice.
};

bool WriteSegments(const std::string& dir, const std::vector<uint8_t>& trace,
                   const std::vector<uint8_t>& advice) {
  fs::create_directories(dir);
  return WriteBytes(dir + "/trace.kseg", trace) && WriteBytes(dir + "/advice.kseg", advice);
}

Stored StoreStream(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice,
                   const std::string& dir) {
  karousos::EpochSlices slices;
  {
    Scope span(&c.spans, "kseg.slice");
    slices = karousos::SliceRun(trace, advice, kEpochRequests);
  }
  std::vector<uint8_t> trace_kseg;
  std::vector<uint8_t> advice_kseg;
  {
    Scope span(&c.spans, "kseg.encode");
    trace_kseg = karousos::EncodeTraceSegments(slices, kAllStages);
    advice_kseg = karousos::EncodeAdviceSegments(slices, kAllStages);
  }
  Scope span(&c.spans, "kseg.write");
  Stored stored{dir, advice_kseg.size()};
  if (!WriteSegments(dir, trace_kseg, advice_kseg)) c.Fail("writing KSEG containers");
  return stored;
}

struct ShardFiles {
  std::vector<std::vector<uint8_t>> files;  // Encoded, all codec stages.
  std::vector<size_t> requests;             // Requests each shard owns.
  double split_s = 0;                       // ShardRun alone.
};

ShardFiles EncodeShards(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice) {
  ShardFiles out;
  std::vector<karousos::ShardFile> shards;
  {
    Scope span(&c.spans, "shard.split");
    shards = karousos::ShardRun(trace, advice, kEpochRequests,
                                karousos::ShardSpec{kShards, karousos::ShardMode::kHash});
    out.split_s = span.End();
  }
  Scope span(&c.spans, "shard.encode");
  for (const karousos::ShardFile& shard : shards) {
    out.files.push_back(karousos::EncodeShardFile(shard, kAllStages));
    out.requests.push_back(shard.boundary.rids.size());
  }
  return out;
}

Stored StoreMonolith(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice,
                     const std::string& dir) {
  karousos::ByteWriter trace_bytes;
  karousos::ByteWriter advice_bytes;
  {
    Scope span(&c.spans, "server.serialize");
    trace.Serialize(&trace_bytes);
    advice.Serialize(&advice_bytes);
  }
  fs::create_directories(dir);
  if (!WriteBytes(dir + "/trace.bin", trace_bytes.bytes()) ||
      !WriteBytes(dir + "/advice.bin", advice_bytes.bytes())) {
    c.Fail("writing trace and advice files");
  }
  return Stored{dir, advice_bytes.size()};
}

Stored Store(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice,
             const std::string& dir) {
  return c.spec.path == AuditPath::kStream ? StoreStream(c, trace, advice, dir)
                                           : StoreMonolith(c, trace, advice, dir);
}

AuditRun AuditStored(Ctx& c, const Stored& stored) {
  if (c.spec.path == AuditPath::kStream) return AuditSegmentsChild(c, stored.dir);
  return AuditMonolithChild(c, stored.dir + "/trace.bin", stored.dir + "/advice.bin",
                            stored.dir + "/audit.out");
}

// ---------------------------------------------------------------------------
// Setup and one round.

struct Setup {
  std::vector<Value> inputs;
  karousos::AppSpec app;
  std::unique_ptr<karousos::WireServer> wire;  // Declared after app: destroyed first.
  double seconds = 0;
};

// Workload generation, program construction and wire-server start: what a
// run pays before the first request.
Setup DoSetup(Ctx& c) {
  Setup s;
  const double t0 = Now();
  {
    Scope span(&c.spans, "workload.generate");
    s.inputs = karousos::GenerateWorkload(
        MakeWorkloadConfig(c.spec, c.spec.requests, c.drawn.workload_seed));
    c.samples.Add("workload.gen_s", span.End());
  }
  {
    Scope span(&c.spans, "server.make_app");
    s.app = c.spec.make_app();
  }
  {
    Scope span(&c.spans, "net.start");
    karousos::WireServerConfig config;
    config.listen = "127.0.0.1:0";
    config.workers = 1;
    config.batch = false;
    config.server = c.RecordConfig(karousos::CollectMode::kKarousos, 0);
    s.wire = std::make_unique<karousos::WireServer>(*s.app.program, config);
    std::string error;
    if (!s.wire->Start(&error)) {
      c.Check(false, "wire server start: " + error);
      s.wire.reset();
    }
  }
  s.seconds = Now() - t0;
  return s;
}

// kSetupBatch setups, each torn down before the next; adds setup_s samples.
void SetupBatch(Ctx& c) {
  for (int i = 0; i < kSetupBatch; ++i) {
    Setup s = DoSetup(c);
    if (s.wire == nullptr) return;
    c.samples.Add("setup_s", s.seconds);
    s.wire->Stop();
    s.wire->Wait();
  }
}

// The part of a verdict line that repeats across rounds of one seed. An
// in-process recording is deterministic for fixed inputs and scheduler seed,
// so its whole line repeats. The wire worker admits requests as they arrive,
// so its graph size moves by a few nodes from round to round while its
// request count, groups and handler executions repeat.
std::string RepeatableVerdict(const WorkloadSpec& spec, const std::string& verdict) {
  if (spec.path == AuditPath::kStream) return verdict;
  return verdict.substr(0, verdict.find(", G = "));
}

struct RoundResult {
  karousos::ServerRunResult audited;  // Kept for the tamper control and the probe.
  std::string verdict;
};

// One pass of the workload through every layer on its path.
RoundResult RunRound(Ctx& c, int round) {
  c.spans.set_round(round);
  Scope round_span(&c.spans, "round.total");
  const WorkloadSpec& spec = c.spec;
  const size_t n = spec.requests;
  Setup s = DoSetup(c);
  if (s.wire == nullptr) return {};

  // Wire: one closed-loop pipelined connection into a live one-worker server.
  karousos::OpenLoopWorkload load_inputs;
  load_inputs.inputs = s.inputs;
  karousos::WireLoadOptions load_options;
  load_options.connections = 1;
  load_options.pipeline = kWirePipeline;
  karousos::WireLoadReport load;
  {
    Scope span(&c.spans, "net.client");
    load = karousos::RunWireLoad(s.wire->bound_address(), load_inputs, load_options);
  }
  if (!load.ok) s.wire->Stop();
  karousos::WireServerReport served;
  {
    Scope span(&c.spans, "net.drain");
    served = s.wire->Wait();
  }
  const size_t answered = load.ok ? n : std::min(load.received, n);
  c.Check(load.ok && served.ok && served.responses == n && served.protocol_errors == 0,
          "wire requests without exactly one response on their own connection" +
              (load.error.empty() ? std::string() : ": " + load.error),
          n, std::max<size_t>(n - answered, 1));
  if (load.ok) {
    c.samples.Add("wire_rps", static_cast<double>(n) / load.wall_seconds);
    c.samples.Add("wire_p50_ms", Quantile(load.latency_seconds, 0.50) * 1e3);
    c.samples.Add("net.p99_ms", Quantile(load.latency_seconds, 0.99) * 1e3);
    c.samples.Add("net.max_ms",
                  *std::max_element(load.latency_seconds.begin(), load.latency_seconds.end()) *
                      1e3);
    c.latencies.insert(c.latencies.end(), load.latency_seconds.begin(),
                       load.latency_seconds.end());
  }
  c.samples.Add("net.client_s", load.wall_seconds);
  c.samples.Add("net.serve_s", served.serve_seconds);
  c.samples.Add("net.frames", static_cast<double>(served.frames));
  c.samples.Add("net.read_disables", static_cast<double>(served.read_disables));
  c.samples.Add("net.protocol_errors", static_cast<double>(served.protocol_errors));
  c.samples.Add("net.peak_conn_buffered_bytes",
                static_cast<double>(served.peak_connection_buffered_bytes));
  SetupBatch(c);

  // Record: the instrumented server, then the unmodified one on the same
  // inputs and scheduler seed (identical schedules).
  karousos::ServerRunResult on;
  {
    Scope span(&c.spans, "server.run");
    karousos::Server server(*s.app.program, c.RecordConfig(karousos::CollectMode::kKarousos, n));
    on = server.Run(s.inputs);
  }
  double off_seconds = 0;
  {
    Scope span(&c.spans, "server.run_off");
    karousos::Server server(*s.app.program, c.RecordConfig(karousos::CollectMode::kOff, n));
    off_seconds = server.Run(s.inputs).serve_seconds;
  }
  const double measured = static_cast<double>(n - n / kWarmupDivisor);
  c.samples.Add("record_rps", measured / on.serve_seconds);
  c.samples.Add("record_overhead_x", on.serve_seconds / off_seconds);
  c.samples.Add("server.run_s", on.serve_seconds);
  c.samples.Add("server.run_off_s", off_seconds);
  c.samples.Add("server.handler_activations", static_cast<double>(on.handler_activations));
  c.samples.Add("server.ops_executed", static_cast<double>(on.ops_executed));
  c.samples.Add("server.var_log_entries", static_cast<double>(on.var_log_entries));
  c.samples.Add("server.advice_spool_bytes", static_cast<double>(on.advice_spool_bytes));
  c.samples.Add("txkv.state_ops", static_cast<double>(on.state_ops));
  c.samples.Add("txkv.conflicts", static_cast<double>(on.conflicts));
  c.samples.Add("txkv.conflict_ratio",
                on.state_ops > 0 ? static_cast<double>(on.conflicts) / on.state_ops : 0.0);
  SetupBatch(c);

  // The recording the auditor receives: the in-process one, or on the wire
  // path the worker's shard.
  karousos::ServerRunResult audited;
  if (spec.path == AuditPath::kOneShot) {
    if (served.shards.empty()) {
      c.Check(false, "wire server returned no record shard");
      return {};
    }
    audited = std::move(served.shards[0].run);
  } else {
    audited = std::move(on);
  }
  served = {};
  on = {};

  Stored stored = Store(c, audited.trace, audited.advice, c.options.work_dir + "/round");
  c.samples.Add("advice_bytes_per_req", static_cast<double>(stored.advice_bytes) / n);
  AuditRun audit = AuditStored(c, stored);
  c.Check(audit.ran && audit.accepted, "honest run not ACCEPTED: " + audit.verdict);
  c.samples.Add("audit_s", audit.wall_s);
  c.samples.Add("audit_peak_rss_mb", audit.peak_rss_mb);
  c.samples.Add("audit.proc_user_s", audit.user_s);
  c.samples.Add("audit.proc_sys_s", audit.sys_s);
  SetupBatch(c);
  c.samples.Add("round_s", round_span.End());
  char timings[160];
  std::snprintf(timings, sizeof(timings),
                "round %d: wire %.3f s, record %.3f s (off %.3f s), audit %.3f s, %.1f MB: ", round,
                load.wall_seconds, c.samples.Get("server.run_s").back(), off_seconds, audit.wall_s,
                audit.peak_rss_mb);
  c.report.notes.push_back(timings + audit.verdict);
  return RoundResult{std::move(audited), audit.verdict};
}

// ---------------------------------------------------------------------------
// Tamper control: `karousos tamper` forges one response in the recorded
// trace; the same stored form of the forged run must be REJECTED.

void TamperControl(Ctx& c, const karousos::ServerRunResult& audited) {
  const std::string dir = c.options.work_dir + "/tamper";
  Stored mono = StoreMonolith(c, audited.trace, audited.advice, dir);
  const std::string forged_path = dir + "/forged.trace";
  ChildUsage tamper = c.launcher->Run({c.Cli({"tamper", "--trace", dir + "/trace.bin", "--out",
                                              forged_path}),
                                       dir + "/tamper.out"});
  std::optional<std::vector<uint8_t>> bytes = ReadBytes(forged_path);
  std::optional<karousos::Trace> forged;
  if (tamper.exit_code == 0 && bytes) {
    karousos::ByteReader reader(*bytes);
    forged = karousos::Trace::Deserialize(&reader);
  }
  if (!forged) {
    c.Check(false, "tamper control could not forge the trace");
    return;
  }
  const AuditRun run =
      c.spec.path == AuditPath::kStream
          ? AuditSegmentsChild(c, StoreStream(c, *forged, audited.advice, dir + "/seg").dir)
          : AuditMonolithChild(c, forged_path, mono.dir + "/advice.bin", dir + "/audit.out");
  c.Check(run.ran && !run.accepted && run.verdict.find("REJECTED") != std::string::npos,
          "tampered trace not REJECTED: " + run.verdict);
  c.report.notes.push_back("tamper control: " + run.verdict);
}

// ---------------------------------------------------------------------------
// Per-layer probe (traced runs): every layer's public calls on the audited
// recording, in-process, with real peak RSS around each decode, feed and
// audit call.

using LayerValues = std::map<std::string, double>;

void ProbeStream(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice,
                 LayerValues* m) {
  const uint64_t epoch = kEpochRequests;
  std::vector<uint8_t> trace_kseg;
  std::vector<uint8_t> advice_kseg;
  size_t advice_raw = 0;
  {
    karousos::EpochSlices slices;
    {
      Scope span(&c.spans, "kseg.slice");
      slices = karousos::SliceRun(trace, advice, epoch);
      (*m)["kseg.slice_s"] = span.End();
    }
    {
      Scope span(&c.spans, "kseg.encode");
      trace_kseg = karousos::EncodeTraceSegments(slices, kAllStages);
      advice_kseg = karousos::EncodeAdviceSegments(slices, kAllStages);
      (*m)["kseg.encode_s"] = span.End();
    }
    Scope span(&c.spans, "kseg.encode_raw");
    advice_raw = karousos::EncodeAdviceSegments(slices).size();
  }
  (*m)["kseg.advice_stored_bytes"] = static_cast<double>(advice_kseg.size());
  (*m)["kseg.trace_stored_bytes"] = static_cast<double>(trace_kseg.size());
  (*m)["kseg.advice_ratio"] = static_cast<double>(advice_raw) / advice_kseg.size();

  ResetPeakRss();
  karousos::SegmentLoadResult loaded;
  {
    Scope span(&c.spans, "analysis.load");
    loaded = karousos::LoadSegmentStreams(trace_kseg, advice_kseg, epoch);
    (*m)["analysis.load_s"] = span.End();
  }
  (*m)["analysis.load_peak_rss_mb"] = PeakRssMb();
  c.Check(loaded.ok, "KSEG containers did not load: " + loaded.reason);
  {
    Scope span(&c.spans, "analysis.check");
    karousos::CheckResult check = karousos::CheckSegmentStreams(trace_kseg, advice_kseg, epoch);
    (*m)["analysis.check_s"] = span.End();
    (*m)["kseg.frames"] = static_cast<double>(check.frames);
    c.Check(check.ok, "pre-screen rejected an honest run: " + check.reason);
  }

  const karousos::AppSpec app = c.spec.make_app();
  karousos::AuditSession session(*app.program, c.AuditConfig(), epoch);
  double feed_s = 0;
  double feed_max_s = 0;
  double peak_mb = 0;
  for (const karousos::EpochSegment& segment : loaded.slices.segments) {
    ResetPeakRss();
    Scope span(&c.spans, "verifier.feed_epoch");
    session.FeedEpoch(segment);
    const double seconds = span.End();
    feed_s += seconds;
    feed_max_s = std::max(feed_max_s, seconds);
    peak_mb = std::max(peak_mb, PeakRssMb());
  }
  ResetPeakRss();
  karousos::AuditResult result;
  {
    Scope span(&c.spans, "verifier.finish");
    result = session.Finish();
    (*m)["verifier.finish_s"] = span.End();
  }
  peak_mb = std::max(peak_mb, PeakRssMb());
  c.Check(result.accepted, "in-process streamed audit not ACCEPTED: " + result.reason);
  const karousos::AuditStats& st = result.stats;
  const karousos::AuditProfile& prof = result.profile;
  (*m)["verifier.feed_s"] = feed_s;
  (*m)["verifier.feed_max_s"] = feed_max_s;
  (*m)["verifier.preprocess_s"] = prof.preprocess_seconds;
  (*m)["verifier.reexec_s"] = prof.reexec_seconds;
  (*m)["verifier.postprocess_s"] = prof.postprocess_seconds;
  (*m)["verifier.unphased_s"] = prof.total_seconds - prof.preprocess_seconds -
                               prof.reexec_seconds - prof.postprocess_seconds;
  (*m)["verifier.groups"] = static_cast<double>(st.groups);
  (*m)["verifier.handler_executions"] = static_cast<double>(st.handler_executions);
  (*m)["verifier.dedup_x"] =
      st.handler_executions > 0 ? static_cast<double>(st.handler_lanes) / st.handler_executions
                                : 0.0;
  (*m)["verifier.ops_executed"] = static_cast<double>(st.ops_executed);
  (*m)["verifier.graph_nodes"] = static_cast<double>(st.graph_nodes);
  (*m)["verifier.graph_edges"] = static_cast<double>(st.graph_edges);
  (*m)["verifier.var_dict_entries"] = static_cast<double>(st.var_dict_entries);
  (*m)["verifier.arena_bytes"] = static_cast<double>(prof.arena_bytes);
  (*m)["verifier.advice_index_entries"] = static_cast<double>(prof.advice_index_entries);
  (*m)["verifier.peak_rss_mb"] = peak_mb;
  (*m)["verifier.modelled_resident_bytes"] =
      static_cast<double>(session.peak_resident_advice_bytes());
  (*m)["adya.dg_nodes"] = static_cast<double>(st.isolation_dg_nodes);
  (*m)["adya.dg_edges"] = static_cast<double>(st.isolation_dg_edges);
}

void ProbeShards(Ctx& c, const karousos::Trace& trace, const karousos::Advice& advice,
                 LayerValues* m) {
  const ShardFiles shards = EncodeShards(c, trace, advice);
  const std::vector<std::vector<uint8_t>>& files = shards.files;
  std::vector<double> sizes;
  for (const std::vector<uint8_t>& file : files) sizes.push_back(static_cast<double>(file.size()));
  const auto [fewest, most] = std::minmax_element(shards.requests.begin(), shards.requests.end());
  (*m)["shard.split_s"] = shards.split_s;
  (*m)["shard.requests.max"] = static_cast<double>(*most);
  (*m)["shard.requests.min"] = static_cast<double>(*fewest);
  (*m)["shard.file_bytes.max"] = *std::max_element(sizes.begin(), sizes.end());
  (*m)["shard.file_bytes.min"] = *std::min_element(sizes.begin(), sizes.end());
  (*m)["shard.skew"] = (*m)["shard.file_bytes.max"] / (*m)["shard.file_bytes.min"];

  // In-process: RunShardAudit per shard, then MergeShardArtifacts.
  karousos::AppSpec app = c.spec.make_app();
  std::vector<karousos::ShardArtifact> artifacts;
  double slowest = 0;
  for (const std::vector<uint8_t>& file : files) {
    Scope span(&c.spans, "shard_audit.run");
    karousos::ShardLoadResult loaded = karousos::LoadShardBytes(file);
    c.Check(loaded.ok, "shard file did not load: " + loaded.reason);
    if (!loaded.ok) return;
    artifacts.push_back(karousos::RunShardAudit(*app.program, loaded.file, c.AuditConfig()));
    slowest = std::max(slowest, span.End());
  }
  (*m)["shard_audit.inproc_s.max"] = slowest;
  karousos::AuditResult merged;
  {
    Scope span(&c.spans, "merge.merge");
    merged = karousos::MergeShardArtifacts(artifacts);
    (*m)["merge.inproc_s"] = span.End();
  }
  c.Check(merged.accepted, "in-process shard merge not ACCEPTED: " + merged.reason);

  // The auditor's processes.
  const std::string dir = c.options.work_dir + "/probe_shards";
  fs::create_directories(dir);
  for (size_t i = 0; i < files.size(); ++i) WriteBytes(dir + "/shard" + Str(i) + ".kseg", files[i]);
  AuditRun run = AuditShardChildren(c, dir);
  c.Check(run.ran && run.accepted, "honest shard audit not ACCEPTED: " + run.verdict);
  if (!run.accepted) return;
  (*m)["shard_audit.audit_s.max"] = *std::max_element(run.shard_s.begin(), run.shard_s.end());
  (*m)["shard_audit.audit_s.min"] = *std::min_element(run.shard_s.begin(), run.shard_s.end());
  (*m)["shard_audit.peak_rss_mb.max"] =
      *std::max_element(run.shard_rss_mb.begin(), run.shard_rss_mb.end());
  (*m)["merge.merge_s"] = run.merge_s;
  (*m)["merge.artifact_bytes"] = static_cast<double>(run.artifact_bytes);
}

// `full` runs every layer; otherwise only record-side sizes, the KSEG
// layers and the streamed audit (the half-size growth pass).
LayerValues Probe(Ctx& c, karousos::ServerRunResult recording, bool full) {
  LayerValues m;
  karousos::ByteWriter trace_bytes;
  karousos::ByteWriter advice_bytes;
  {
    Scope span(&c.spans, "server.serialize");
    recording.trace.Serialize(&trace_bytes);
    recording.advice.Serialize(&advice_bytes);
  }
  const karousos::Advice::SizeBreakdown size = recording.advice.MeasureSize();
  m["server.trace_bytes"] = static_cast<double>(trace_bytes.size());
  m["server.advice_raw_bytes"] = static_cast<double>(advice_bytes.size());
  m["server.advice.tags_bytes"] = static_cast<double>(size.tags);
  m["server.advice.handler_logs_bytes"] = static_cast<double>(size.handler_logs);
  m["server.advice.var_logs_bytes"] = static_cast<double>(size.var_logs);
  m["server.advice.tx_logs_bytes"] = static_cast<double>(size.tx_logs);
  m["server.advice.write_order_bytes"] = static_cast<double>(size.write_order);
  recording = {};  // Later peaks then measure the layer, not the recording.

  ResetPeakRss();
  std::optional<karousos::Trace> trace;
  std::optional<karousos::Advice> advice;
  {
    Scope span(&c.spans, "server.deserialize");
    karousos::ByteReader trace_reader(trace_bytes.bytes());
    trace = karousos::Trace::Deserialize(&trace_reader);
    karousos::ByteReader advice_reader(advice_bytes.bytes());
    advice = karousos::Advice::Deserialize(&advice_reader);
    m["server.deserialize_s"] = span.End();
  }
  m["server.deserialize_peak_rss_mb"] = PeakRssMb();
  c.Check(trace && advice, "monolithic trace or advice did not decode");
  if (!trace || !advice) return m;

  ProbeStream(c, *trace, *advice, &m);
  if (!full) return m;

  ResetPeakRss();
  {
    Scope span(&c.spans, "verifier.oneshot");
    karousos::AuditResult one =
        karousos::AuditOnly(c.spec.make_app(), *trace, *advice, c.AuditConfig());
    m["verifier.oneshot_s"] = span.End();
    c.Check(one.accepted, "in-process one-shot audit not ACCEPTED: " + one.reason);
  }
  m["verifier.oneshot_peak_rss_mb"] = PeakRssMb();
  ProbeShards(c, *trace, *advice, &m);
  return m;
}

// ---------------------------------------------------------------------------
// Metric tables.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"record_rps", "req/s"},
    {"record_overhead_x", "ratio"},
    {"advice_bytes_per_req", "B/req"},
    {"wire_rps", "req/s"},
    {"wire_p50_ms", "ms"},
    {"audit_s", "s"},
    {"audit_peak_rss_mb", "MB"},
};

// Per-layer metrics taken as medians over the rounds.
constexpr MetricDef kRoundLayer[] = {
    {"workload.gen_s", "s"},
    {"server.run_s", "s"},
    {"server.run_off_s", "s"},
    {"server.handler_activations", "count"},
    {"server.ops_executed", "count"},
    {"server.var_log_entries", "count"},
    {"server.advice_spool_bytes", "B"},
    {"txkv.state_ops", "count"},
    {"txkv.conflicts", "count"},
    {"txkv.conflict_ratio", "ratio"},
    {"net.client_s", "s"},
    {"net.serve_s", "s"},
    {"net.frames", "count"},
    {"net.read_disables", "count"},
    {"net.protocol_errors", "count"},
    {"net.peak_conn_buffered_bytes", "B"},
    {"net.p99_ms", "ms"},
    {"net.max_ms", "ms"},
    {"audit.proc_user_s", "s"},
    {"audit.proc_sys_s", "s"},
};

// Per-layer metrics from the probe.
constexpr MetricDef kProbeLayer[] = {
    {"server.advice_raw_bytes", "B"},
    {"server.advice.tags_bytes", "B"},
    {"server.advice.handler_logs_bytes", "B"},
    {"server.advice.var_logs_bytes", "B"},
    {"server.advice.tx_logs_bytes", "B"},
    {"server.advice.write_order_bytes", "B"},
    {"server.trace_bytes", "B"},
    {"server.deserialize_s", "s"},
    {"server.deserialize_peak_rss_mb", "MB"},
    {"kseg.slice_s", "s"},
    {"kseg.encode_s", "s"},
    {"kseg.frames", "count"},
    {"kseg.advice_stored_bytes", "B"},
    {"kseg.trace_stored_bytes", "B"},
    {"kseg.advice_ratio", "ratio"},
    {"shard.split_s", "s"},
    {"shard.requests.max", "count"},
    {"shard.requests.min", "count"},
    {"shard.file_bytes.max", "B"},
    {"shard.file_bytes.min", "B"},
    {"shard.skew", "ratio"},
    {"analysis.load_s", "s"},
    {"analysis.load_peak_rss_mb", "MB"},
    {"analysis.check_s", "s"},
    {"verifier.feed_s", "s"},
    {"verifier.feed_max_s", "s"},
    {"verifier.finish_s", "s"},
    {"verifier.oneshot_s", "s"},
    {"verifier.preprocess_s", "s"},
    {"verifier.reexec_s", "s"},
    {"verifier.postprocess_s", "s"},
    {"verifier.unphased_s", "s"},
    {"verifier.groups", "count"},
    {"verifier.handler_executions", "count"},
    {"verifier.dedup_x", "ratio"},
    {"verifier.ops_executed", "count"},
    {"verifier.graph_nodes", "count"},
    {"verifier.graph_edges", "count"},
    {"verifier.var_dict_entries", "count"},
    {"verifier.arena_bytes", "B"},
    {"verifier.advice_index_entries", "count"},
    {"verifier.peak_rss_mb", "MB"},
    {"verifier.oneshot_peak_rss_mb", "MB"},
    {"verifier.modelled_resident_bytes", "B"},
    {"adya.dg_nodes", "count"},
    {"adya.dg_edges", "count"},
    {"shard_audit.inproc_s.max", "s"},
    {"merge.inproc_s", "s"},
    {"shard_audit.audit_s.max", "s"},
    {"shard_audit.audit_s.min", "s"},
    {"shard_audit.peak_rss_mb.max", "MB"},
    {"merge.merge_s", "s"},
    {"merge.artifact_bytes", "B"},
    {"audit.outside_s", "s"},
};

// Layers whose self time is reported as <layer>.self_s.
constexpr const char* kLayers[] = {"workload", "server", "net",         "kseg",  "shard",
                                   "analysis", "verifier", "shard_audit", "merge", "audit"};

void AddMetric(Report* report, const char* name, const char* unit, double value) {
  report->metrics.push_back(Metric{name, unit, value});
}

// Time from the stored files to the verdict that the in-process calls of the
// same path account for; the rest of the process's wall is outside them.
double InProcessAuditSeconds(const WorkloadSpec& spec, const LayerValues& m) {
  auto get = [&](const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  if (spec.path == AuditPath::kStream) {
    return get("analysis.load_s") + get("verifier.feed_s") + get("verifier.finish_s");
  }
  return get("server.deserialize_s") + get("verifier.oneshot_s");
}

void TracedMetrics(Ctx& c, karousos::ServerRunResult audited) {
  Report& r = c.report;
  const WorkloadSpec& spec = c.spec;
  c.spans.set_round(-1);  // The probe.
  LayerValues m = Probe(c, std::move(audited), /*full=*/true);

  // Half size: the same layers on a stream half as long, so per-request
  // growth shows layer by layer.
  const size_t half = spec.requests / 2;
  LayerValues h;
  {
    c.spans.set_round(-2);
    DrawnInputs drawn = DrawInputs(spec, half, c.options.seed);
    karousos::AppSpec app = spec.make_app();
    karousos::Server server(*app.program, c.RecordConfig(karousos::CollectMode::kKarousos, half));
    karousos::ServerRunResult rec;
    {
      Scope span(&c.spans, "server.run");
      rec = server.Run(drawn.inputs);
    }
    const double half_run_s = rec.serve_seconds;
    h = Probe(c, std::move(rec), /*full=*/false);
    h["server.run_s"] = half_run_s;
  }

  for (const MetricDef& def : kRoundLayer) {
    AddMetric(&r, def.name, def.unit, c.samples.Median(def.name));
  }
  m["audit.outside_s"] = c.samples.Median("audit_s") - InProcessAuditSeconds(spec, m);
  for (const MetricDef& def : kProbeLayer) AddMetric(&r, def.name, def.unit, m[def.name]);
  AddMetric(&r, "workload.draw_candidates", "count", static_cast<double>(c.drawn.candidates));

  const std::map<std::string, double> self = c.spans.SelfSecondsByLayer();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    AddMetric(&r, (std::string(layer) + ".self_s").c_str(), "s",
              it == self.end() ? 0.0 : it->second);
  }

  // Tracing overhead: rounds alternate spans off/on.
  std::vector<double> off;
  std::vector<double> on;
  const std::vector<double>& rounds = c.samples.Get("round_s");
  for (size_t i = 0; i < rounds.size(); ++i) (i % 2 == 0 ? off : on).push_back(rounds[i]);
  AddMetric(&r, "trace.overhead_x", "ratio",
            off.empty() || on.empty() ? 1.0 : Median(on) / Median(off));
  AddMetric(&r, "trace.spans", "count", static_cast<double>(c.spans.spans().size()));

  const double full_n = static_cast<double>(spec.requests);
  const double half_n = static_cast<double>(half);
  auto per_req_growth = [&](const std::string& name) {
    return h[name] > 0 ? (m[name] / full_n) / (h[name] / half_n) : 0.0;
  };
  const double full_run = c.samples.Median("server.run_s");
  const double full_audit = m["verifier.feed_s"] + m["verifier.finish_s"];
  const double half_audit = h["verifier.feed_s"] + h["verifier.finish_s"];
  AddMetric(&r, "growth.server_run_x", "ratio",
            h["server.run_s"] > 0 ? (full_run / full_n) / (h["server.run_s"] / half_n) : 0.0);
  AddMetric(&r, "growth.advice_raw_x", "ratio", per_req_growth("server.advice_raw_bytes"));
  AddMetric(&r, "growth.kseg_advice_x", "ratio", per_req_growth("kseg.advice_stored_bytes"));
  AddMetric(&r, "growth.verifier_audit_x", "ratio",
            half_audit > 0 ? (full_audit / full_n) / (half_audit / half_n) : 0.0);
  AddMetric(&r, "growth.verifier_reexec_x", "ratio", per_req_growth("verifier.reexec_s"));
  AddMetric(&r, "growth.verifier_peak_rss_x", "ratio",
            h["verifier.peak_rss_mb"] > 0 ? m["verifier.peak_rss_mb"] / h["verifier.peak_rss_mb"]
                                          : 0.0);
}

}  // namespace

Report RunBenchmark(const Options& options, Launcher* launcher) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  Ctx c(options, *spec, launcher);
  {
    const double t0 = Now();
    c.drawn = DrawInputs(*spec, spec->requests, options.seed);
    std::ostringstream note;
    note << "inputs: " << spec->requests << " " << spec->app << " requests, generator seed "
         << c.drawn.workload_seed << " (candidate " << c.drawn.candidates << ", shape within "
         << c.drawn.deviation * 100 << "% of nominal), drawn in " << Now() - t0 << " s";
    c.report.notes.push_back(note.str());
  }

  // Warm-up round: the allocator's pools and the caches fill; its samples are
  // dropped (its operations and verdict still count).
  karousos::ServerRunResult audited;
  std::string first_verdict;
  {
    RoundResult warm = RunRound(c, 0);
    first_verdict = RepeatableVerdict(*spec, warm.verdict);
    c.samples = Samples();
    c.latencies.clear();
  }

  // Rounds until --seconds is spent (half of it in traced runs, whose probe
  // takes the other half): a round starts only if it is expected to end
  // within half a round of the deadline.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const double t0 = Now();
  for (int round = 1;; ++round) {
    const double elapsed = Now() - t0;
    const int done = round - 1;
    if (done >= kMinRounds && elapsed + 0.5 * elapsed / done > budget) break;
    c.spans.set_on(options.trace && round % 2 == 0);
    RoundResult result = RunRound(c, round);
    audited = std::move(result.audited);
    if (c.report.failed > 0) break;
    if (RepeatableVerdict(*spec, result.verdict) != first_verdict) {
      c.Fail("verdict differs across rounds of one seed: " + result.verdict);
    }
  }
  c.spans.set_on(options.trace);
  if (c.report.failed == 0) TamperControl(c, audited);

  Report& r = c.report;
  if (options.trace) {
    if (c.report.failed == 0) TracedMetrics(c, std::move(audited));
    const std::string path =
        options.out_dir + "/spans-" + spec->name + "-" + Str(options.seed) + ".json";
    fs::create_directories(options.out_dir);
    if (c.spans.WriteJson(path)) r.notes.push_back("spans: " + path);
  } else {
    for (const MetricDef& def : kEndToEnd) {
      AddMetric(&r, def.name, def.unit, c.samples.Median(def.name));
    }
  }

  r.notes.push_back("setup: " + Distribution(c.samples.Get("setup_s"), "s", 1));
  r.notes.push_back("record throughput: " + Distribution(c.samples.Get("record_rps"), "req/s", 1));
  r.notes.push_back("wire latency: " + Distribution(c.latencies, "ms", 1e3));
  r.notes.push_back("audit: " + Distribution(c.samples.Get("audit_s"), "s", 1));
  return r;
}

}  // namespace pipeline_bench
