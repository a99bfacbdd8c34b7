// karousos — command-line front end for the audit pipeline.
//
//   karousos serve  --app wiki --workload mixed --requests 600 --concurrency 15
//                   --out-trace trace.bin --out-advice advice.bin
//   karousos audit  --app wiki --trace trace.bin --advice advice.bin [--isolation rc]
//   karousos tamper --trace trace.bin --out trace_forged.bin
//   karousos inspect --advice advice.bin
//
// `serve` runs the instrumented server and writes the collector's trace and
// the server's advice in the wire format; `audit` replays them through the
// verifier; `tamper` forges the first response (for demos); `inspect` prints
// the advice composition; `analyze` runs the analysis layer alone — the
// structural advice linter over (trace, advice) files, or (with --races) the
// §5 happens-before race detector over a fresh in-process serve.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <algorithm>

#include "src/analysis/check.h"
#include "src/analysis/lint.h"
#include "src/analysis/race.h"
#include "src/audit/audit.h"
#include "src/audit/stream.h"
#include "src/common/json.h"
#include "src/common/segment.h"
#include "src/net/wire_server.h"
#include "src/server/rollover.h"
#include "src/server/shard.h"
#include "src/verifier/shard_audit.h"
#include "src/workload/wire_load.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  karousos serve  --app <motd|stacks|wiki|auction|mixed> [--workload <reads|writes|mixed>]\n"
               "                  [--requests N] [--concurrency C] [--seed S] [--mode karousos|orochi]\n"
               "                  [--isolation ser|rc|ru] [--inputs FILE]\n"
               "                  --out-trace FILE --out-advice FILE\n"
               "                  [--out-segments DIR --epoch-size N] [--compress STAGES]\n"
               "      --workload: request mix — reads (90/10), writes (10/90), or mixed\n"
               "      (50/50; wiki/auction/mixed apps use their native mixes)\n"
               "      --requests/--concurrency/--seed: workload size, in-flight window,\n"
               "      and the shared workload+scheduler seed\n"
               "      --mode: advice collection — karousos (default) or the orochi\n"
               "      baseline; --isolation: store isolation level\n"
               "      --inputs: serve a JSON-lines request stream instead of --workload\n"
               "      --out-segments: also (or instead) write the epoch-segmented KSEG\n"
               "      containers DIR/trace.kseg and DIR/advice.kseg\n"
               "      --compress: storage-class codec stages for the KSEG containers —\n"
               "      'all' or a comma list of lanes,dict,block (emits format v2 frames;\n"
               "      'none' = raw v1, the default)\n"
               "  karousos serve  --app <...> --listen <unix:/path|host:port>\n"
               "                  [--net-workers N] [--net-batch] [--out-shards DIR]\n"
               "                  [--concurrency C] [--seed S] [--mode ...] [--isolation ...]\n"
               "      network front-end: accept framed requests over TCP or a unix\n"
               "      socket instead of generating a workload in-process; runs until a\n"
               "      client shutdown frame arrives (e.g. from `karousos load`)\n"
               "      --net-workers: worker event loops; worker w is its own record\n"
               "      shard, served with seed S+w (connections round-robin by accept)\n"
               "      --net-batch: collect requests until clients half-close, then serve\n"
               "      each shard in client-sequence order (byte-deterministic shards)\n"
               "      --out-shards: write DIR/shard<w>.trace and DIR/shard<w>.advice,\n"
               "      each auditable with `karousos audit --seed S+w`\n"
               "  karousos load   --connect <unix:/path|host:port> --app <...> [--workload ...]\n"
               "                  [--requests N] [--connections C] [--seed S] [--net-batch]\n"
               "                  [--arrival closed|uniform|bursty|diurnal] [--rate R]\n"
               "                  [--pipeline N]\n"
               "      open-loop socket client: replays the generated workload against a\n"
               "      `serve --listen` server (request i rides connection i mod C) and\n"
               "      sends the drain frame when done; prints throughput and latency\n"
               "      --arrival/--rate: open-loop pacing (closed = back-to-back)\n"
               "      --pipeline: in-flight window per connection (1 = strict RPC,\n"
               "      N = pipelined; default 0 = unbounded); every response must come\n"
               "      back on the connection that sent its request\n"
               "      --net-batch: write everything up front + half-close (pairs with a\n"
               "      `serve --net-batch` server)\n"
               "  karousos audit  --app <motd|stacks|wiki|auction|mixed> --trace FILE --advice FILE\n"
               "                  [--segments DIR]\n"
               "                  [--isolation ser|rc|ru] [--threads N] [--profile]\n"
               "                  [--epoch-size N] [--checkpoint FILE] [--resume FILE]\n"
               "      --segments: audit DIR/trace.kseg + DIR/advice.kseg (KSEG containers\n"
               "      are also auto-detected on --trace/--advice; --epoch-size required)\n"
               "      KSEG containers and monolithic files given --epoch-size,\n"
               "      --checkpoint or --resume take the streamed audit, which runs the\n"
               "      static KAR-SEG pre-screen before each epoch's re-execution; the\n"
               "      pre-screen alone enforces KAR-SEG-007 and KAR-SEG-008\n"
               "      --threads: audit-group parallelism (1 = serial, 0 = all hardware\n"
               "      threads); the verdict is identical for every value\n"
               "      --profile: print phase-timing JSON (Preprocess/ReExec/Postprocess)\n"
               "      --epoch-size: stream the audit in epochs of N requests (0 = one\n"
               "      epoch); same verdict as the one-shot audit\n"
               "      --checkpoint: save the carry state to FILE after every epoch\n"
               "      --resume: restore the carry state from FILE and continue from the\n"
               "      first unaudited epoch\n"
               "  karousos shard  --trace FILE --advice FILE --shards K --out-dir DIR\n"
               "                  [--epoch-size N] [--shard-mode hash|range] [--compress STAGES]\n"
               "      partition one run into K self-contained shard files DIR/shard<i>.kseg\n"
               "      (group-atomic by request hash, or contiguous rid ranges); each shard\n"
               "      carries the replicated trace, its advice slice, and a cross-shard\n"
               "      boundary manifest, and audits independently with `audit-shard`\n"
               "  karousos audit-shard --app <...> --shard-file FILE [--out ARTIFACT]\n"
               "                  [--isolation ser|rc|ru] [--threads N]\n"
               "      audit one shard in isolation (full verifier; epochs and threads\n"
               "      compose) and write its verdict artifact for `audit-merge`\n"
               "  karousos audit-merge --in-dir DIR | --artifact FILE [--artifact FILE ...]\n"
               "      deterministically merge K shard-verdict artifacts into the run's\n"
               "      verdict: cross-shard rid coverage, write-order stitching, continuity\n"
               "      confirmation, write-chain stitching, and the global isolation check\n"
               "      (--in-dir merges every *.artifact in DIR)\n"
               "  karousos tamper --trace FILE --out FILE\n"
               "  karousos inspect --advice FILE | --trace FILE\n"
               "      advice/trace files print composition; segment containers print\n"
               "      per-epoch frame headers (kind, epoch, payload size, CRC)\n"
               "  karousos check  --segments DIR | --trace FILE --advice FILE\n"
               "                  [--epoch-size N]\n"
               "      streaming static model check (KAR-ADV + KAR-SEG rules), no\n"
               "      re-execution: KSEG containers need --epoch-size; monolithic files\n"
               "      are sliced at --epoch-size (default 0 = one epoch); exit 1 on reject\n"
               "  karousos analyze --trace FILE --advice FILE [--epoch-size N]\n"
               "      lint the advice against the trace; segment containers run the\n"
               "      streaming model check instead; exit 1 on findings\n"
               "  karousos analyze --races --app <motd|stacks|wiki|auction|mixed> [--workload ...]\n"
               "                  [--requests N] [--concurrency C] [--seed S]\n"
               "      serve in-process and race-check untracked accesses; exit 1 on findings\n");
  return 2;
}

std::optional<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

struct Args {
  std::string command;
  std::string app = "motd";
  std::string workload = "mixed";
  std::string mode = "karousos";
  std::string isolation = "ser";
  std::string trace_path;
  std::string advice_path;
  std::string out_path;
  std::string inputs_path;  // JSON-lines request stream (overrides --workload).
  std::string checkpoint_path;
  std::string resume_path;
  std::string segments_dir;
  std::string out_segments_dir;
  std::string compress;  // "", "none", "all", or comma list of lanes,dict,block.
  size_t requests = 200;
  int concurrency = 8;
  uint64_t seed = 1;
  unsigned threads = 1;
  uint64_t epoch_size = 0;
  bool epoch_size_set = false;
  bool races = false;
  bool profile = false;
  // Network front-end (serve --listen / load --connect).
  std::string listen;
  std::string connect;
  std::string out_shards_dir;
  size_t net_workers = 1;
  bool net_batch = false;
  size_t connections = 1;
  std::string arrival = "closed";
  double rate = 2000.0;
  size_t pipeline = 0;  // load: in-flight window per connection (0 = unbounded).
  // Shard-axis audit (shard / audit-shard / audit-merge).
  uint32_t shards = 1;
  std::string shard_mode = "hash";
  std::string out_dir;
  std::string shard_file;
  std::string in_dir;
  std::vector<std::string> artifact_paths;
};

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) {
    return std::nullopt;
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc;) {
    std::string flag = argv[i];
    if (flag == "--races") {
      args.races = true;
      ++i;
      continue;
    }
    if (flag == "--profile") {
      args.profile = true;
      ++i;
      continue;
    }
    if (flag == "--net-batch") {
      args.net_batch = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' needs a value\n", flag.c_str());
      return std::nullopt;
    }
    std::string value = argv[i + 1];
    i += 2;
    if (flag == "--app") {
      args.app = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--isolation") {
      args.isolation = value;
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--advice") {
      args.advice_path = value;
    } else if (flag == "--out-trace") {
      args.trace_path = value;
    } else if (flag == "--out-advice") {
      args.advice_path = value;
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--inputs") {
      args.inputs_path = value;
    } else if (flag == "--requests") {
      args.requests = static_cast<size_t>(std::stoul(value));
    } else if (flag == "--concurrency") {
      args.concurrency = std::stoi(value);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--threads") {
      args.threads = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--epoch-size") {
      args.epoch_size = std::stoull(value);
      args.epoch_size_set = true;
    } else if (flag == "--checkpoint") {
      args.checkpoint_path = value;
    } else if (flag == "--resume") {
      args.resume_path = value;
    } else if (flag == "--segments") {
      args.segments_dir = value;
    } else if (flag == "--out-segments") {
      args.out_segments_dir = value;
    } else if (flag == "--compress") {
      args.compress = value;
    } else if (flag == "--listen") {
      args.listen = value;
    } else if (flag == "--connect") {
      args.connect = value;
    } else if (flag == "--out-shards") {
      args.out_shards_dir = value;
    } else if (flag == "--net-workers") {
      args.net_workers = static_cast<size_t>(std::stoul(value));
    } else if (flag == "--connections") {
      args.connections = static_cast<size_t>(std::stoul(value));
    } else if (flag == "--arrival") {
      args.arrival = value;
    } else if (flag == "--rate") {
      args.rate = std::stod(value);
    } else if (flag == "--pipeline") {
      args.pipeline = static_cast<size_t>(std::stoul(value));
    } else if (flag == "--shards") {
      args.shards = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--shard-mode") {
      args.shard_mode = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--shard-file") {
      args.shard_file = value;
    } else if (flag == "--in-dir") {
      args.in_dir = value;
    } else if (flag == "--artifact") {
      args.artifact_paths.push_back(value);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return std::nullopt;
    }
  }
  return args;
}

AppSpec MakeApp(const std::string& name) {
  if (name == "motd") {
    return MakeMotdApp();
  }
  if (name == "stacks") {
    return MakeStacksApp();
  }
  if (name == "wiki") {
    return MakeWikiApp();
  }
  if (name == "auction") {
    return MakeAuctionApp();
  }
  if (name == "mixed") {
    return MakeMixedApp();
  }
  std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
  std::exit(2);
}

KsegCompression ParseCompression(const std::string& s) {
  KsegCompression c;
  if (s.empty() || s == "none") {
    return c;
  }
  if (s == "all") {
    return KsegCompression::All();
  }
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    std::string stage = s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (stage == "lanes") {
      c.lanes = true;
    } else if (stage == "dict") {
      c.dict = true;
    } else if (stage == "block") {
      c.block = true;
    } else {
      std::fprintf(stderr, "unknown --compress stage '%s' (want all, none, or a comma list "
                           "of lanes,dict,block)\n", stage.c_str());
      std::exit(2);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return c;
}

IsolationLevel ParseIsolation(const std::string& s) {
  if (s == "ser") {
    return IsolationLevel::kSerializable;
  }
  if (s == "rc") {
    return IsolationLevel::kReadCommitted;
  }
  if (s == "ru") {
    return IsolationLevel::kReadUncommitted;
  }
  std::fprintf(stderr, "unknown isolation level '%s'\n", s.c_str());
  std::exit(2);
}

// Shared serve/load/analyze plumbing: one place maps CLI args to the
// workload and server configs and runs an in-process serve.

WorkloadConfig MakeWorkloadConfig(const Args& args) {
  WorkloadConfig wl;
  wl.app = args.app;
  wl.kind = args.workload == "reads"    ? WorkloadKind::kReadHeavy
            : args.workload == "writes" ? WorkloadKind::kWriteHeavy
            : args.app == "wiki"        ? WorkloadKind::kWikiMix
            : args.app == "auction"     ? WorkloadKind::kAuctionMix
            : args.app == "mixed"       ? WorkloadKind::kMixedApps
                                        : WorkloadKind::kMixed;
  wl.requests = args.requests;
  wl.seed = args.seed;
  wl.connections = args.concurrency;
  return wl;
}

ServerConfig MakeServerConfig(const Args& args) {
  ServerConfig config;
  config.mode = args.mode == "orochi" ? CollectMode::kOrochi : CollectMode::kKarousos;
  config.isolation = ParseIsolation(args.isolation);
  config.concurrency = args.concurrency;
  config.seed = args.seed;
  return config;
}

ServerRunResult RunServe(const Args& args, const AppSpec& app,
                         const std::vector<Value>& inputs) {
  Server server(*app.program, MakeServerConfig(args));
  return server.Run(inputs);
}

// serve --listen: the event-loop network front-end. Runs until a client
// shutdown frame drains the server, then reports per-shard results and
// optionally writes each shard's trace/advice for independent auditing.
int CmdServeWire(const Args& args) {
  AppSpec app = MakeApp(args.app);
  WireServerConfig wc;
  wc.listen = args.listen;
  wc.workers = args.net_workers;
  wc.batch = args.net_batch;
  wc.server = MakeServerConfig(args);
  WireServer server(*app.program, wc);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve --listen: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s (%zu worker%s, %s mode, concurrency %d, seed %llu)\n",
              server.bound_address().c_str(), wc.workers, wc.workers == 1 ? "" : "s",
              wc.batch ? "batch" : "live", wc.server.concurrency,
              static_cast<unsigned long long>(wc.server.seed));
  std::fflush(stdout);
  WireServerReport report = server.Wait();
  if (!report.ok) {
    std::fprintf(stderr, "serve --listen: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("drained: %zu connections, %zu requests, %zu responses, "
              "%zu protocol errors, %llu read-disables, peak buffered %zu B\n",
              report.connections, report.requests, report.responses, report.protocol_errors,
              static_cast<unsigned long long>(report.read_disables),
              report.peak_connection_buffered_bytes);
  for (const WireShardResult& shard : report.shards) {
    std::printf("shard %zu (seed %llu): %zu connections, %zu requests, "
                "%zu var-log entries, %zu txns\n",
                shard.worker, static_cast<unsigned long long>(wc.server.seed + shard.worker),
                shard.connections, shard.requests, shard.run.advice.var_log_entry_count(),
                shard.run.advice.tx_logs.size());
  }
  if (!args.out_shards_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_shards_dir, ec);
    for (const WireShardResult& shard : report.shards) {
      ByteWriter trace_bytes;
      shard.run.trace.Serialize(&trace_bytes);
      ByteWriter advice_bytes;
      shard.run.advice.Serialize(&advice_bytes);
      const std::string base = args.out_shards_dir + "/shard" + std::to_string(shard.worker);
      if (!WriteFile(base + ".trace", trace_bytes.bytes()) ||
          !WriteFile(base + ".advice", advice_bytes.bytes())) {
        std::fprintf(stderr, "failed to write %s.{trace,advice}\n", base.c_str());
        return 1;
      }
      std::printf("shard %zu -> %s.trace (%zu B), %s.advice (%zu B)\n", shard.worker,
                  base.c_str(), trace_bytes.size(), base.c_str(), advice_bytes.size());
    }
  }
  return 0;
}

// load --connect: open-loop socket client for a serve --listen server.
int CmdLoad(const Args& args) {
  if (args.connect.empty()) {
    return Usage();
  }
  WorkloadConfig wl = MakeWorkloadConfig(args);
  wl.arrival = args.arrival == "uniform"   ? ArrivalPattern::kUniform
               : args.arrival == "bursty"  ? ArrivalPattern::kBursty
               : args.arrival == "diurnal" ? ArrivalPattern::kDiurnal
                                           : ArrivalPattern::kClosed;
  wl.mean_rate = args.rate;
  OpenLoopWorkload workload = GenerateOpenLoop(wl);

  WireLoadOptions options;
  options.connections = args.connections;
  options.batch = args.net_batch;
  options.pipeline = args.pipeline;
  WireLoadReport report = RunWireLoad(args.connect, workload, options);
  if (!report.ok) {
    std::fprintf(stderr, "load: %s\n", report.error.c_str());
    return 1;
  }
  std::vector<double> sorted = report.latency_seconds;
  std::sort(sorted.begin(), sorted.end());
  auto percentile = [&sorted](double p) {
    if (sorted.empty()) {
      return 0.0;
    }
    size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  };
  std::string window = args.pipeline == 0 ? std::string("unbounded")
                                          : "window " + std::to_string(args.pipeline);
  std::printf("load: %zu requests over %zu connection%s (%s) in %.3fs (%.0f req/s)\n",
              report.received, args.connections, args.connections == 1 ? "" : "s",
              window.c_str(), report.wall_seconds,
              report.wall_seconds > 0 ? static_cast<double>(report.received) / report.wall_seconds
                                      : 0.0);
  std::printf("latency: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n", percentile(0.50) * 1e3,
              percentile(0.99) * 1e3, sorted.empty() ? 0.0 : sorted.back() * 1e3);
  return 0;
}

int CmdServe(const Args& args) {
  if (!args.listen.empty()) {
    return CmdServeWire(args);
  }
  const bool want_monolith = !args.trace_path.empty() || !args.advice_path.empty();
  if (want_monolith && (args.trace_path.empty() || args.advice_path.empty())) {
    return Usage();
  }
  if (!want_monolith && args.out_segments_dir.empty()) {
    return Usage();
  }
  if (!args.out_segments_dir.empty() && !args.epoch_size_set) {
    std::fprintf(stderr, "--out-segments needs --epoch-size\n");
    return 2;
  }
  std::vector<Value> inputs;
  if (!args.inputs_path.empty()) {
    // One JSON request per line.
    std::ifstream in(args.inputs_path);
    if (!in) {
      std::fprintf(stderr, "failed to read %s\n", args.inputs_path.c_str());
      return 1;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) {
        continue;
      }
      JsonParseError error;
      auto value = ParseJson(line, &error);
      if (!value) {
        std::fprintf(stderr, "%s:%zu: JSON error at offset %zu: %s\n",
                     args.inputs_path.c_str(), lineno, error.position, error.message.c_str());
        return 1;
      }
      inputs.push_back(std::move(*value));
    }
  } else {
    inputs = GenerateWorkload(MakeWorkloadConfig(args));
  }

  AppSpec app = MakeApp(args.app);
  ServerRunResult run = RunServe(args, app, inputs);

  std::printf("served %zu requests (%s, concurrency %d) in %.3fs\n", inputs.size(),
              CollectModeName(MakeServerConfig(args).mode), args.concurrency,
              run.serve_seconds);
  if (want_monolith) {
    ByteWriter trace_bytes;
    run.trace.Serialize(&trace_bytes);
    ByteWriter advice_bytes;
    run.advice.Serialize(&advice_bytes);
    if (!WriteFile(args.trace_path, trace_bytes.bytes()) ||
        !WriteFile(args.advice_path, advice_bytes.bytes())) {
      std::fprintf(stderr, "failed to write outputs\n");
      return 1;
    }
    std::printf("trace: %zu events -> %s (%zu B)\n", run.trace.events.size(),
                args.trace_path.c_str(), trace_bytes.size());
    std::printf("advice: %zu var-log entries, %zu txns -> %s (%zu B)\n",
                run.advice.var_log_entry_count(), run.advice.tx_logs.size(),
                args.advice_path.c_str(), advice_bytes.size());
  }
  if (!args.out_segments_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_segments_dir, ec);
    const KsegCompression comp = ParseCompression(args.compress);
    EpochSlices slices = SliceRun(run.trace, run.advice, args.epoch_size);
    std::string trace_out = args.out_segments_dir + "/trace.kseg";
    std::string advice_out = args.out_segments_dir + "/advice.kseg";
    std::vector<uint8_t> trace_seg = EncodeTraceSegments(slices, comp);
    std::vector<uint8_t> advice_seg = EncodeAdviceSegments(slices, comp);
    if (!WriteFile(trace_out, trace_seg) || !WriteFile(advice_out, advice_seg)) {
      std::fprintf(stderr, "failed to write segment containers in %s\n",
                   args.out_segments_dir.c_str());
      return 1;
    }
    std::printf("segments: %zu epochs (epoch size %llu) -> %s (%zu B), %s (%zu B)\n",
                slices.segments.size(), static_cast<unsigned long long>(args.epoch_size),
                trace_out.c_str(), trace_seg.size(), advice_out.c_str(), advice_seg.size());
    if (comp.any()) {
      const size_t raw_advice = EncodeAdviceSegments(slices).size();
      const size_t raw_trace = EncodeTraceSegments(slices).size();
      std::printf("compressed (%s): advice %zu -> %zu B (%.2fx), trace %zu -> %zu B (%.2fx)\n",
                  args.compress.c_str(), raw_advice, advice_seg.size(),
                  advice_seg.empty() ? 0.0 : static_cast<double>(raw_advice) / advice_seg.size(),
                  raw_trace, trace_seg.size(),
                  trace_seg.empty() ? 0.0 : static_cast<double>(raw_trace) / trace_seg.size());
    }
  }
  return 0;
}

// The (trace, advice) pair `audit`, `check` and `analyze` read: KSEG
// containers (--segments DIR, or detected on --trace/--advice; --epoch-size
// required), kept as bytes for the container front ends, or monolithic files,
// decoded.
struct RunInput {
  bool segmented = false;
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
  std::optional<Trace> trace;
  std::optional<Advice> advice;
};

// Fills `in`, or returns the exit code the command stops with.
std::optional<int> ReadRunInput(const Args& args, RunInput* in) {
  std::string trace_path = args.trace_path;
  std::string advice_path = args.advice_path;
  if (!args.segments_dir.empty()) {
    trace_path = args.segments_dir + "/trace.kseg";
    advice_path = args.segments_dir + "/advice.kseg";
  }
  if (trace_path.empty() || advice_path.empty()) {
    return Usage();
  }
  auto trace_bytes = ReadFile(trace_path);
  auto advice_bytes = ReadFile(advice_path);
  if (!trace_bytes || !advice_bytes) {
    std::fprintf(stderr, "failed to read inputs\n");
    return 1;
  }
  if (LooksLikeSegmentFile(*trace_bytes) || LooksLikeSegmentFile(*advice_bytes)) {
    if (!args.epoch_size_set) {
      std::fprintf(stderr, "--epoch-size is required for segment containers\n");
      return 2;
    }
    in->segmented = true;
    in->trace_bytes = std::move(*trace_bytes);
    in->advice_bytes = std::move(*advice_bytes);
    return std::nullopt;
  }
  ByteReader trace_reader(*trace_bytes);
  in->trace = Trace::Deserialize(&trace_reader);
  if (!in->trace) {
    std::printf("REJECTED: malformed trace file\n");
    return 1;
  }
  ByteReader advice_reader(*advice_bytes);
  in->advice = Advice::Deserialize(&advice_reader);
  if (!in->advice) {
    std::printf("REJECTED: malformed advice file (server misbehavior)\n");
    return 1;
  }
  return std::nullopt;
}

// `karousos audit`: the one-shot audit for a monolithic pair, otherwise the
// one streamed loop over either stored form, with checkpoint and resume.
int CmdAudit(const Args& args) {
  RunInput in;
  if (auto code = ReadRunInput(args, &in)) {
    return *code;
  }
  AppSpec app = MakeApp(args.app);
  VerifierConfig config{ParseIsolation(args.isolation), args.threads};

  AuditResult audit;
  if (in.segmented || args.epoch_size_set || !args.resume_path.empty() ||
      !args.checkpoint_path.empty()) {
    std::unique_ptr<AuditSession> session;
    if (!args.resume_path.empty()) {
      auto checkpoint = ReadFile(args.resume_path);
      if (!checkpoint) {
        std::fprintf(stderr, "failed to read %s\n", args.resume_path.c_str());
        return 1;
      }
      std::string error;
      session = AuditSession::Restore(*app.program, config, *checkpoint, &error);
      if (session == nullptr) {
        std::printf("REJECTED: %s\n", error.c_str());
        return 1;
      }
      std::printf("resumed from %s at epoch %llu\n", args.resume_path.c_str(),
                  static_cast<unsigned long long>(session->next_epoch()));
    } else {
      session = std::make_unique<AuditSession>(*app.program, config, args.epoch_size);
    }
    // A resumed audit decodes at the checkpoint's epoch size, or epoch
    // indices would not line up with the audited prefix. A monolithic run is
    // sliced by moving its advice, and the trace goes once it is sliced.
    std::unique_ptr<EpochSource> source;
    if (in.segmented) {
      source = std::make_unique<PairedSegmentCursor>(in.trace_bytes, in.advice_bytes);
    } else {
      source = std::make_unique<SliceSource>(
          SliceRunOwned(*in.trace, std::move(*in.advice), session->epoch_requests()));
      in.trace.reset();
      in.advice.reset();
    }
    bool checkpoint_failed = false;
    StreamAuditResult streamed =
        RunStreamedAudit(session.get(), source.get(), [&](AuditSession& s) {
          if (!args.checkpoint_path.empty() &&
              !WriteFile(args.checkpoint_path, s.SaveCheckpoint())) {
            checkpoint_failed = true;
          }
        });
    if (checkpoint_failed) {
      std::fprintf(stderr, "failed to write %s\n", args.checkpoint_path.c_str());
      return 1;
    }
    std::printf("streamed %llu epochs (epoch size %llu)\n",
                static_cast<unsigned long long>(streamed.epochs),
                static_cast<unsigned long long>(session->epoch_requests()));
    audit = std::move(streamed.audit);
  } else {
    audit = AuditOnly(app, *in.trace, *in.advice, config);
  }
  if (args.profile) {
    std::printf("%s\n", AuditProfileToJson(audit.profile).c_str());
  }
  if (audit.accepted) {
    std::printf("ACCEPTED: %zu requests in %zu groups, %zu handler executions, "
                "G = %zu nodes / %zu edges\n",
                audit.stats.group_lane_total, audit.stats.groups,
                audit.stats.handler_executions, audit.stats.graph_nodes,
                audit.stats.graph_edges);
    return 0;
  }
  std::printf("REJECTED: %s\n", audit.reason.c_str());
  return 1;
}

// karousos shard: partition a monolithic (trace, advice) run into K
// self-contained shard files, each independently auditable.
int CmdShard(const Args& args) {
  if (args.trace_path.empty() || args.advice_path.empty() || args.out_dir.empty() ||
      args.shards == 0) {
    return Usage();
  }
  auto mode = ParseShardMode(args.shard_mode);
  if (!mode) {
    std::fprintf(stderr, "unknown --shard-mode '%s' (want hash or range)\n",
                 args.shard_mode.c_str());
    return 2;
  }
  auto trace_bytes = ReadFile(args.trace_path);
  auto advice_bytes = ReadFile(args.advice_path);
  if (!trace_bytes || !advice_bytes) {
    std::fprintf(stderr, "failed to read inputs\n");
    return 1;
  }
  ByteReader trace_reader(*trace_bytes);
  auto trace = Trace::Deserialize(&trace_reader);
  if (!trace) {
    std::fprintf(stderr, "malformed trace file\n");
    return 1;
  }
  ByteReader advice_reader(*advice_bytes);
  auto advice = Advice::Deserialize(&advice_reader);
  if (!advice) {
    std::fprintf(stderr, "malformed advice file\n");
    return 1;
  }
  const KsegCompression comp = ParseCompression(args.compress);
  ShardSpec spec{args.shards, *mode};
  std::vector<ShardFile> shards = ShardRun(*trace, *advice, args.epoch_size, spec);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  for (const ShardFile& shard : shards) {
    std::vector<uint8_t> bytes =
        comp.any() ? EncodeShardFile(shard, comp) : EncodeShardFile(shard);
    const std::string path =
        args.out_dir + "/shard" + std::to_string(shard.boundary.shard) + ".kseg";
    if (!WriteFile(path, bytes)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("shard %u/%u -> %s (%zu B): %zu rids, %llu epochs, "
                "%zu write-order entries of %llu, %zu chains, %zu+%zu export obligations\n",
                shard.boundary.shard, shard.boundary.count, path.c_str(), bytes.size(),
                shard.boundary.rids.size(),
                static_cast<unsigned long long>(shard.boundary.epochs),
                shard.boundary.write_order_positions.size(),
                static_cast<unsigned long long>(shard.boundary.write_order_total),
                shard.boundary.chains.size(), shard.boundary.export_tx_refs.size(),
                shard.boundary.export_var_refs.size());
  }
  std::printf("sharded into %zu files (%s mode, epoch size %llu) in %s\n", shards.size(),
              ShardModeName(*mode), static_cast<unsigned long long>(args.epoch_size),
              args.out_dir.c_str());
  return 0;
}

// karousos audit-shard: verify one shard file in isolation and emit its
// signed-verdict artifact for audit-merge.
int CmdAuditShard(const Args& args) {
  if (args.shard_file.empty()) {
    return Usage();
  }
  ShardLoadResult loaded = LoadShardFile(args.shard_file);
  if (!loaded.ok) {
    // No artifact: an unloadable shard never produces a mergeable verdict.
    std::printf("REJECTED: %s\n", loaded.reason.c_str());
    return 1;
  }
  AppSpec app = MakeApp(args.app);
  VerifierConfig config{ParseIsolation(args.isolation), args.threads};
  ShardArtifact artifact = RunShardAudit(*app.program, loaded.file, config);
  if (!args.out_path.empty()) {
    if (!WriteFile(args.out_path, EncodeShardArtifact(artifact))) {
      std::fprintf(stderr, "failed to write %s\n", args.out_path.c_str());
      return 1;
    }
  }
  std::printf("shard %u/%u: %llu epochs, %zu rids\n", artifact.shard, artifact.count,
              static_cast<unsigned long long>(artifact.epochs), artifact.rids.size());
  if (artifact.accepted) {
    std::printf("SHARD ACCEPTED: %zu write-order entries, %zu txns, "
                "%zu pending imports, %zu exports\n",
                artifact.write_order.size(), artifact.txn_sizes.size(),
                artifact.pending_tx_imports.size() + artifact.pending_var_imports.size(),
                artifact.tx_exports.size() + artifact.var_exports.size());
    return 0;
  }
  std::printf("SHARD REJECTED: %s\n", artifact.reason.c_str());
  return 1;
}

// karousos audit-merge: combine K shard-verdict artifacts into the run's
// verdict — exactly the cross-shard checks, no re-execution.
int CmdAuditMerge(const Args& args) {
  std::vector<std::string> paths = args.artifact_paths;
  if (!args.in_dir.empty()) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(args.in_dir, ec)) {
      if (entry.path().extension() == ".artifact") {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "failed to scan %s: %s\n", args.in_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    std::sort(paths.begin(), paths.end());
  }
  if (paths.empty()) {
    return Usage();
  }
  std::vector<ShardArtifact> artifacts;
  artifacts.reserve(paths.size());
  for (const std::string& path : paths) {
    ShardArtifactLoadResult loaded = LoadShardArtifactFile(path);
    if (!loaded.ok) {
      std::printf("REJECTED: %s: %s\n", path.c_str(), loaded.reason.c_str());
      return 1;
    }
    artifacts.push_back(std::move(loaded.artifact));
  }
  AuditResult merged = MergeShardArtifacts(artifacts);
  for (const LintDiagnostic& d : merged.diagnostics) {
    std::printf("%s\n", d.Format().c_str());
  }
  if (merged.accepted) {
    std::printf("ACCEPTED: %zu shards merged, isolation DG %zu nodes / %zu edges\n",
                artifacts.size(), merged.stats.isolation_dg_nodes,
                merged.stats.isolation_dg_edges);
    return 0;
  }
  std::printf("REJECTED: %s\n", merged.reason.c_str());
  return 1;
}

int CmdTamper(const Args& args) {
  if (args.trace_path.empty() || args.out_path.empty()) {
    return Usage();
  }
  auto bytes = ReadFile(args.trace_path);
  if (!bytes) {
    std::fprintf(stderr, "failed to read trace\n");
    return 1;
  }
  ByteReader reader(*bytes);
  auto trace = Trace::Deserialize(&reader);
  if (!trace) {
    std::fprintf(stderr, "malformed trace\n");
    return 1;
  }
  for (TraceEvent& ev : trace->events) {
    if (ev.kind == TraceEvent::Kind::kResponse) {
      ev.payload = MakeMap({{"forged", true}});
      std::printf("forged the response of request %llu\n",
                  static_cast<unsigned long long>(ev.rid));
      break;
    }
  }
  ByteWriter writer;
  trace->Serialize(&writer);
  if (!WriteFile(args.out_path, writer.bytes())) {
    std::fprintf(stderr, "failed to write output\n");
    return 1;
  }
  return 0;
}

// Renders a frame's flags byte as stage letters: L(anes) D(ict) B(lock).
std::string FlagsString(uint8_t flags) {
  if (flags == 0) {
    return "---";
  }
  std::string s;
  s.push_back((flags & kFrameFlagLanes) ? 'L' : '-');
  s.push_back((flags & kFrameFlagDict) ? 'D' : '-');
  s.push_back((flags & kFrameFlagBlock) ? 'B' : '-');
  return s;
}

// Walks a segment container and prints one line per frame: offset, kind,
// epoch, codec flags, stored payload size, CRC, and (for decodable kinds)
// the payload's counts. For advice containers it accumulates the decoded
// per-component SizeBreakdown and reports stored vs raw-equivalent bytes —
// the per-file compression ratio.
int InspectSegments(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  if (reader == nullptr) {
    std::printf("malformed segment container: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s: segment container, format v%u, %zu B\n", path.c_str(),
              reader->format_version(), bytes.size());
  SegmentRecord record;
  size_t frames = 0;
  size_t stored_advice = 0;
  size_t raw_advice = 0;
  size_t stored_trace = 0;
  size_t raw_trace = 0;
  size_t imports_bytes = 0;
  Advice::SizeBreakdown breakdown;
  while (reader->Next(&record)) {
    ++frames;
    std::printf("  @%-8llu %-10s epoch %-4llu flags %s  payload %8zu B  crc 0x%08x",
                static_cast<unsigned long long>(record.offset),
                SegmentKindName(record.kind),
                static_cast<unsigned long long>(record.epoch), FlagsString(record.flags).c_str(),
                record.payload.size(), record.crc);
    if (record.kind == SegmentKind::kTrace) {
      auto window = DecodeTraceSegmentPayload(record.payload, record.flags);
      if (window) {
        ByteWriter raw;
        SerializeTraceEvents(*window, &raw);
        stored_trace += record.payload.size();
        raw_trace += raw.size();
        std::printf("  (%zu events)", window->size());
      } else {
        std::printf("  (undecodable payload)");
      }
    } else if (record.kind == SegmentKind::kAdvice) {
      auto payload = DecodeAdviceSegmentPayload(record.payload, record.flags);
      if (payload) {
        Advice::SizeBreakdown b = payload->advice.MeasureSize();
        breakdown.total += b.total;
        breakdown.tags += b.tags;
        breakdown.handler_logs += b.handler_logs;
        breakdown.var_logs += b.var_logs;
        breakdown.tx_logs += b.tx_logs;
        breakdown.write_order += b.write_order;
        breakdown.other += b.other;
        ByteWriter imports_raw;
        payload->imports.Serialize(&imports_raw);
        imports_bytes += imports_raw.size();
        stored_advice += record.payload.size();
        raw_advice += b.total + imports_raw.size();
        std::printf("  (%zu requests, %zu var-log entries, %zu txns, %zu imports)",
                    payload->advice.tags.size(), payload->advice.var_log_entry_count(),
                    payload->advice.tx_logs.size(),
                    payload->imports.tx_ops.size() + payload->imports.var_entries.size());
      } else {
        std::printf("  (undecodable payload)");
      }
    } else if (record.kind == SegmentKind::kShardBoundary) {
      ByteReader in(record.payload);
      auto boundary = ShardBoundary::Deserialize(&in);
      if (boundary && in.AtEnd()) {
        std::printf("  (shard %u/%u, %s mode, %llu epochs of %llu requests, %zu rids, "
                    "%zu/%llu write-order entries, %zu chains, %zu+%zu export obligations)",
                    boundary->shard, boundary->count, ShardModeName(boundary->mode),
                    static_cast<unsigned long long>(boundary->epochs),
                    static_cast<unsigned long long>(boundary->epoch_requests),
                    boundary->rids.size(), boundary->write_order_positions.size(),
                    static_cast<unsigned long long>(boundary->write_order_total),
                    boundary->chains.size(), boundary->export_tx_refs.size(),
                    boundary->export_var_refs.size());
      } else {
        std::printf("  (undecodable payload)");
      }
    } else if (record.kind == SegmentKind::kShardArtifact) {
      ByteReader in(record.payload);
      auto artifact = ShardArtifact::Deserialize(&in);
      if (artifact && in.AtEnd()) {
        std::printf("  (shard %u/%u, %s", artifact->shard, artifact->count,
                    artifact->accepted ? "ACCEPTED" : "REJECTED");
        if (!artifact->accepted) {
          std::printf(" [%s]", artifact->rule.empty() ? "dynamic" : artifact->rule.c_str());
        }
        std::printf(", %zu rids, %zu write-order entries, %zu pending imports, %zu exports)",
                    artifact->rids.size(), artifact->write_order.size(),
                    artifact->pending_tx_imports.size() + artifact->pending_var_imports.size(),
                    artifact->tx_exports.size() + artifact->var_exports.size());
      } else {
        std::printf("  (undecodable payload)");
      }
    }
    std::printf("\n");
  }
  if (!reader->ok()) {
    std::printf("  malformed after %zu frame(s): %s\n", frames, reader->error().c_str());
    return 1;
  }
  std::printf("%zu frame(s)\n", frames);
  if (raw_advice > 0) {
    std::printf("advice payloads: %zu B stored, %zu B raw-equivalent (%.2fx)\n", stored_advice,
                raw_advice,
                stored_advice ? static_cast<double>(raw_advice) / stored_advice : 0.0);
    std::printf("  raw-equivalent composition:\n");
    std::printf("    tags:           %8zu B\n", breakdown.tags);
    std::printf("    handler logs:   %8zu B\n", breakdown.handler_logs);
    std::printf("    variable logs:  %8zu B\n", breakdown.var_logs);
    std::printf("    tx logs:        %8zu B\n", breakdown.tx_logs);
    std::printf("    write order:    %8zu B\n", breakdown.write_order);
    std::printf("    other:          %8zu B\n", breakdown.other);
    std::printf("    imports:        %8zu B\n", imports_bytes);
  }
  if (raw_trace > 0) {
    std::printf("trace payloads: %zu B stored, %zu B raw-equivalent (%.2fx)\n", stored_trace,
                raw_trace, stored_trace ? static_cast<double>(raw_trace) / stored_trace : 0.0);
  }
  return 0;
}

int CmdInspect(const Args& args) {
  const bool have_advice = !args.advice_path.empty();
  const bool have_trace = !args.trace_path.empty();
  if (have_advice == have_trace) {
    return Usage();
  }
  const std::string& path = have_advice ? args.advice_path : args.trace_path;
  auto bytes = ReadFile(path);
  if (!bytes) {
    std::fprintf(stderr, "failed to read %s\n", path.c_str());
    return 1;
  }
  if (LooksLikeSegmentFile(*bytes)) {
    return InspectSegments(path, *bytes);
  }
  if (have_trace) {
    ByteReader trace_reader(*bytes);
    auto trace = Trace::Deserialize(&trace_reader);
    if (!trace) {
      std::printf("malformed trace file\n");
      return 1;
    }
    size_t requests = 0;
    size_t responses = 0;
    for (const TraceEvent& ev : trace->events) {
      if (ev.kind == TraceEvent::Kind::kRequest) {
        ++requests;
      } else {
        ++responses;
      }
    }
    std::printf("trace: %zu events (%zu requests, %zu responses), %zu B\n",
                trace->events.size(), requests, responses, bytes->size());
    return 0;
  }
  ByteReader reader(*bytes);
  auto advice = Advice::Deserialize(&reader);
  if (!advice) {
    std::printf("malformed advice file\n");
    return 1;
  }
  Advice::SizeBreakdown size = advice->MeasureSize();
  std::printf("advice: %zu B total\n", size.total);
  std::printf("  tags:           %8zu B (%zu requests)\n", size.tags, advice->tags.size());
  std::printf("  handler logs:   %8zu B (%zu entries)\n", size.handler_logs,
              advice->handler_log_entry_count());
  std::printf("  variable logs:  %8zu B (%zu entries in %zu variables)\n", size.var_logs,
              advice->var_log_entry_count(), advice->var_logs.size());
  std::printf("  tx logs:        %8zu B (%zu transactions)\n", size.tx_logs,
              advice->tx_logs.size());
  std::printf("  write order:    %8zu B (%zu writes)\n", size.write_order,
              advice->write_order.size());
  std::printf("  other:          %8zu B (%zu opcounts, %zu nondet records)\n", size.other,
              advice->opcounts.size(), advice->nondet.size());
  return 0;
}

// The streaming static model check: file-layer walk (KSEG only) + per-epoch
// KAR-ADV lint + cross-epoch KAR-SEG rules, no re-execution. Monolithic
// files are sliced at `epoch_requests` first (0 = one epoch). Shared by
// `check` and by `analyze` when it is handed segment containers.
int RunCheck(const RunInput& in, uint64_t epoch_requests) {
  CheckResult result =
      in.segmented ? CheckSegmentStreams(in.trace_bytes, in.advice_bytes, epoch_requests)
                   : CheckRun(*in.trace, *in.advice, epoch_requests);
  for (const LintDiagnostic& d : result.diagnostics) {
    std::printf("%s\n", d.Format().c_str());
  }
  if (!result.ok) {
    std::printf("REJECTED: %s\n", result.reason.c_str());
    return 1;
  }
  std::printf("model check: clean (%llu epochs", static_cast<unsigned long long>(result.epochs));
  if (in.segmented) {
    std::printf(", %llu frames", static_cast<unsigned long long>(result.frames));
  }
  std::printf(")\n");
  return 0;
}

// `karousos check`: the static half of the audit, standalone. Accepts the
// segmented production artifact (--segments DIR or KSEG --trace/--advice) or
// a monolithic pair, which it slices at --epoch-size first.
int CmdCheck(const Args& args) {
  RunInput in;
  if (auto code = ReadRunInput(args, &in)) {
    return *code;
  }
  return RunCheck(in, args.epoch_size);
}

// Runs the structural advice linter over (trace, advice) files — the same
// pass Verifier::Audit runs as its preprocess stage, standalone and without
// re-execution. Prints every diagnostic; exits 1 iff there are findings.
// Segment containers divert to the streaming model check.
int CmdAnalyzeLint(const Args& args) {
  RunInput in;
  if (auto code = ReadRunInput(args, &in)) {
    return *code;
  }
  if (in.segmented) {
    return RunCheck(in, args.epoch_size);
  }
  std::vector<LintDiagnostic> diagnostics = LintAdvice(*in.trace, *in.advice);
  for (const LintDiagnostic& d : diagnostics) {
    std::printf("%s\n", d.Format().c_str());
  }
  if (diagnostics.empty()) {
    std::printf("advice lint: clean (%zu requests, %zu var-log entries)\n",
                in.advice->tags.size(), in.advice->var_log_entry_count());
    return 0;
  }
  std::printf("advice lint: %zu finding(s)\n", diagnostics.size());
  return 1;
}

// Serves the app in-process with untracked-access recording on and runs the
// §5 happens-before race detector over the access log. Exits 1 iff races.
int CmdAnalyzeRaces(const Args& args) {
  std::vector<Value> inputs = GenerateWorkload(MakeWorkloadConfig(args));
  AppSpec app = MakeApp(args.app);
  ServerRunResult run = RunServe(args, app, inputs);

  std::vector<RaceFinding> findings = DetectUntrackedRaces(run.untracked_accesses);
  for (const RaceFinding& f : findings) {
    std::printf("%s: %s\n", f.rule.c_str(), f.Describe().c_str());
  }
  if (findings.empty()) {
    std::printf("race check: clean (%zu untracked accesses across %zu requests)\n",
                run.untracked_accesses.size(), inputs.size());
    return 0;
  }
  std::printf("race check: %zu finding(s)\n", findings.size());
  return 1;
}

int CmdAnalyze(const Args& args) {
  return args.races ? CmdAnalyzeRaces(args) : CmdAnalyzeLint(args);
}

int Main(int argc, char** argv) {
  auto args = Parse(argc, argv);
  if (!args) {
    return Usage();
  }
  if (args->command == "serve") {
    return CmdServe(*args);
  }
  if (args->command == "load") {
    return CmdLoad(*args);
  }
  if (args->command == "audit") {
    return CmdAudit(*args);
  }
  if (args->command == "shard") {
    return CmdShard(*args);
  }
  if (args->command == "audit-shard") {
    return CmdAuditShard(*args);
  }
  if (args->command == "audit-merge") {
    return CmdAuditMerge(*args);
  }
  if (args->command == "tamper") {
    return CmdTamper(*args);
  }
  if (args->command == "inspect") {
    return CmdInspect(*args);
  }
  if (args->command == "analyze") {
    return CmdAnalyze(*args);
  }
  if (args->command == "check") {
    return CmdCheck(*args);
  }
  return Usage();
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
