// Storage-class advice benchmark: what do the KSEG codec stages (delta
// lanes, per-segment dictionaries, block compression) buy on the wire, and
// what do they cost on the clock?
//
// For each application (stacks, motd, auction) at 600 requests, epoch size
// 50: serve once per rep (record path), slice, and encode the segment
// streams raw and at each cumulative stage (lanes, lanes+dict, all). Reports
// stored bytes, bytes/request, the per-component raw composition, median
// encode and decode times for the full stack, and the codec's share of the
// end-to-end record+audit time. The compressed stream must audit-accept with
// a verdict identical to the raw stream's.
//
// Hard gates (BUG + nonzero exit): the full stack must at least halve the
// stacks advice stream, and encode+decode must stay under 15% of
// record+audit on every app.
//
// Usage: advice_size [output.json] [--quick]   (--quick: 5 reps instead of 9;
// sizes are deterministic either way, so the committed baseline's rows still
// match). Each time is the median of its reps: one rep of a ~10 ms phase is
// noise enough on a shared box to cross the 15% gate on its own.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/check.h"
#include "src/audit/stream.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

constexpr uint64_t kEpochSize = 50;

struct BenchApp {
  const char* name;
  WorkloadKind kind;
  int concurrency;
};

constexpr BenchApp kApps[] = {
    {"stacks", WorkloadKind::kMixed, 15},
    {"motd", WorkloadKind::kWriteHeavy, 15},
    {"auction", WorkloadKind::kAuctionMix, 12},
};

struct Row {
  std::string app;
  size_t requests = 0;
  size_t raw_advice_bytes = 0;
  size_t lanes_advice_bytes = 0;
  size_t lanes_dict_advice_bytes = 0;
  size_t packed_advice_bytes = 0;
  size_t raw_trace_bytes = 0;
  size_t packed_trace_bytes = 0;
  double advice_ratio = 0;
  double trace_ratio = 0;
  double raw_advice_bytes_per_request = 0;
  double packed_advice_bytes_per_request = 0;
  // Raw composition of the advice monolith (plus serialized imports).
  size_t tags_bytes = 0;
  size_t handler_logs_bytes = 0;
  size_t var_logs_bytes = 0;
  size_t tx_logs_bytes = 0;
  size_t write_order_bytes = 0;
  size_t other_bytes = 0;
  size_t imports_bytes = 0;
  double record_seconds = 0;
  double audit_seconds = 0;
  double encode_seconds = 0;
  double decode_seconds = 0;
  double codec_overhead_pct = 0;
};

// Decodes every frame of both streams (the verifier's read path, isolated
// from replay); returns false on any undecodable frame.
bool DecodeStreams(const std::vector<uint8_t>& trace_bytes,
                   const std::vector<uint8_t>& advice_bytes) {
  for (int which = 0; which < 2; ++which) {
    const std::vector<uint8_t>& bytes = which == 0 ? trace_bytes : advice_bytes;
    std::string error;
    auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
    if (reader == nullptr) {
      return false;
    }
    SegmentRecord rec;
    while (reader->Next(&rec)) {
      if (rec.kind == SegmentKind::kTrace) {
        if (!DecodeTraceSegmentPayload(rec.payload, rec.flags)) {
          return false;
        }
      } else if (rec.kind == SegmentKind::kAdvice) {
        if (!DecodeAdviceSegmentPayload(rec.payload, rec.flags)) {
          return false;
        }
      }
    }
    if (!reader->ok()) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_advice_size.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t kRequests = 600;
  const int kReps = quick ? 5 : 9;

  const KsegCompression kLanes = KsegCompression{true, false, false};
  const KsegCompression kLanesDict = KsegCompression{true, true, false};
  const KsegCompression kAll = KsegCompression::All();

  std::printf("=== Storage-class advice: stored bytes and codec cost ===\n");
  std::printf("(%zu requests, epoch size %llu, %d rep%s)\n", kRequests,
              static_cast<unsigned long long>(kEpochSize), kReps, kReps == 1 ? "" : "s");

  std::vector<Row> rows;
  int bugs = 0;
  for (const BenchApp& spec : kApps) {
    AppSpec app = MakeApp(spec.name).value();
    WorkloadConfig wl;
    wl.app = spec.name;
    wl.kind = spec.kind;
    wl.requests = kRequests;
    wl.seed = 7;
    wl.connections = spec.concurrency;
    ServerConfig server_config;
    server_config.concurrency = spec.concurrency;
    server_config.seed = 7;

    std::vector<double> record_times, audit_times, encode_times, decode_times;
    ServerRunResult run;
    for (int rep = 0; rep < kReps; ++rep) {
      Server server(*app.program, server_config);
      double t0 = bench::Now();
      run = server.Run(GenerateWorkload(wl));
      record_times.push_back(bench::Now() - t0);
    }

    EpochSlices slices = SliceRun(run.trace, run.advice, kEpochSize);
    std::vector<uint8_t> packed_trace, packed_advice;
    for (int rep = 0; rep < kReps; ++rep) {
      double t0 = bench::Now();
      packed_trace = EncodeTraceSegments(slices, kAll);
      packed_advice = EncodeAdviceSegments(slices, kAll);
      encode_times.push_back(bench::Now() - t0);
    }
    const std::vector<uint8_t> raw_trace = EncodeTraceSegments(slices);
    const std::vector<uint8_t> raw_advice = EncodeAdviceSegments(slices);
    const std::vector<uint8_t> lanes_advice = EncodeAdviceSegments(slices, kLanes);
    const std::vector<uint8_t> lanes_dict_advice = EncodeAdviceSegments(slices, kLanesDict);

    for (int rep = 0; rep < kReps; ++rep) {
      double t0 = bench::Now();
      if (!DecodeStreams(packed_trace, packed_advice)) {
        std::fprintf(stderr, "BUG: [%s] compressed stream failed to decode\n", spec.name);
        return 1;
      }
      decode_times.push_back(bench::Now() - t0);
    }

    VerifierConfig cfg{IsolationLevel::kSerializable, 1};
    StreamAuditResult raw_audit, packed_audit;
    for (int rep = 0; rep < kReps; ++rep) {
      double t0 = bench::Now();
      raw_audit = AuditSegments(app, raw_trace, raw_advice, cfg);
      audit_times.push_back(bench::Now() - t0);
    }
    packed_audit = AuditSegments(app, packed_trace, packed_advice, cfg);
    if (!raw_audit.audit.accepted) {
      std::fprintf(stderr, "BUG: [%s] raw stream rejected: %s\n", spec.name,
                   raw_audit.audit.reason.c_str());
      return 1;
    }
    if (packed_audit.audit.accepted != raw_audit.audit.accepted ||
        packed_audit.audit.reason != raw_audit.audit.reason ||
        packed_audit.audit.rule != raw_audit.audit.rule) {
      std::fprintf(stderr, "BUG: [%s] compressed verdict differs from raw\n", spec.name);
      return 1;
    }

    Row row;
    row.app = spec.name;
    row.requests = kRequests;
    row.raw_advice_bytes = raw_advice.size();
    row.lanes_advice_bytes = lanes_advice.size();
    row.lanes_dict_advice_bytes = lanes_dict_advice.size();
    row.packed_advice_bytes = packed_advice.size();
    row.raw_trace_bytes = raw_trace.size();
    row.packed_trace_bytes = packed_trace.size();
    row.advice_ratio =
        static_cast<double>(row.raw_advice_bytes) / static_cast<double>(row.packed_advice_bytes);
    row.trace_ratio =
        static_cast<double>(row.raw_trace_bytes) / static_cast<double>(row.packed_trace_bytes);
    row.raw_advice_bytes_per_request =
        static_cast<double>(row.raw_advice_bytes) / static_cast<double>(kRequests);
    row.packed_advice_bytes_per_request =
        static_cast<double>(row.packed_advice_bytes) / static_cast<double>(kRequests);
    Advice::SizeBreakdown b = run.advice.MeasureSize();
    row.tags_bytes = b.tags;
    row.handler_logs_bytes = b.handler_logs;
    row.var_logs_bytes = b.var_logs;
    row.tx_logs_bytes = b.tx_logs;
    row.write_order_bytes = b.write_order;
    row.other_bytes = b.other;
    // A stage-off advice frame is the slice's advice bytes, then the imports.
    for (const EpochSegment& seg : slices.segments) {
      ByteWriter w;
      EncodeAdviceSegmentPayload(seg.advice, seg.imports, KsegCompression{}, &w);
      row.imports_bytes += w.size() - seg.advice.MeasureSize().total;
    }
    row.record_seconds = bench::Median(record_times);
    row.audit_seconds = bench::Median(audit_times);
    row.encode_seconds = bench::Median(encode_times);
    row.decode_seconds = bench::Median(decode_times);
    row.codec_overhead_pct = 100.0 * (row.encode_seconds + row.decode_seconds) /
                             (row.record_seconds + row.audit_seconds);
    rows.push_back(row);

    std::printf("\n[%s] advice: raw %zu B -> lanes %zu B -> +dict %zu B -> +block %zu B "
                "(%.2fx); trace: %zu -> %zu B (%.2fx)\n",
                spec.name, row.raw_advice_bytes, row.lanes_advice_bytes,
                row.lanes_dict_advice_bytes, row.packed_advice_bytes, row.advice_ratio,
                row.raw_trace_bytes, row.packed_trace_bytes, row.trace_ratio);
    std::printf("  %.1f B/request raw -> %.1f B/request packed\n",
                row.raw_advice_bytes_per_request, row.packed_advice_bytes_per_request);
    std::printf("  raw composition: tags %zu, handler %zu, var %zu, tx %zu, "
                "write-order %zu, other %zu, imports %zu B\n",
                row.tags_bytes, row.handler_logs_bytes, row.var_logs_bytes, row.tx_logs_bytes,
                row.write_order_bytes, row.other_bytes, row.imports_bytes);
    std::printf("  record %.4fs, audit %.4fs; encode %.4fs + decode %.4fs = %.1f%% overhead\n",
                row.record_seconds, row.audit_seconds, row.encode_seconds, row.decode_seconds,
                row.codec_overhead_pct);

    if (row.codec_overhead_pct > 15.0) {
      std::fprintf(stderr, "BUG: [%s] codec overhead %.1f%% exceeds the 15%% budget\n",
                   spec.name, row.codec_overhead_pct);
      ++bugs;
    }
    if (std::strcmp(spec.name, "stacks") == 0 && row.advice_ratio < 2.0) {
      std::fprintf(stderr, "BUG: [stacks] full-stack advice ratio %.2fx below the 2x floor\n",
                   row.advice_ratio);
      ++bugs;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"advice_size\",\n  \"epoch_size\": %llu,\n"
               "  \"rows\": [\n",
               static_cast<unsigned long long>(kEpochSize));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"app\": \"%s\", \"requests\": %zu, \"raw_advice_bytes\": %zu, "
        "\"lanes_advice_bytes\": %zu, \"lanes_dict_advice_bytes\": %zu, "
        "\"packed_advice_bytes\": %zu, \"advice_ratio\": %.4f, "
        "\"raw_trace_bytes\": %zu, \"packed_trace_bytes\": %zu, \"trace_ratio\": %.4f, "
        "\"raw_advice_bytes_per_request\": %.2f, \"packed_advice_bytes_per_request\": %.2f, "
        "\"tags_bytes\": %zu, \"handler_logs_bytes\": %zu, \"var_logs_bytes\": %zu, "
        "\"tx_logs_bytes\": %zu, \"write_order_bytes\": %zu, \"other_bytes\": %zu, "
        "\"imports_bytes\": %zu, \"record_seconds\": %.6f, \"audit_seconds\": %.6f, "
        "\"encode_seconds\": %.6f, \"decode_seconds\": %.6f, \"codec_overhead_pct\": %.3f}%s\n",
        r.app.c_str(), r.requests, r.raw_advice_bytes, r.lanes_advice_bytes,
        r.lanes_dict_advice_bytes, r.packed_advice_bytes, r.advice_ratio, r.raw_trace_bytes,
        r.packed_trace_bytes, r.trace_ratio, r.raw_advice_bytes_per_request,
        r.packed_advice_bytes_per_request, r.tags_bytes, r.handler_logs_bytes, r.var_logs_bytes,
        r.tx_logs_bytes, r.write_order_bytes, r.other_bytes, r.imports_bytes, r.record_seconds,
        r.audit_seconds, r.encode_seconds, r.decode_seconds, r.codec_overhead_pct,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return bugs == 0 ? 0 : 1;
}

}  // namespace
}  // namespace karousos

int main(int argc, char** argv) { return karousos::Main(argc, argv); }
