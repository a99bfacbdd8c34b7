// Wire-format pinning for the record path: the streaming AdviceBuilder (and
// the move-based epoch slicer) must produce byte-identical advice, trace, and
// segment streams to the committed pre-rewrite fixtures
// (tests/fixtures/record_golden/, regenerated only intentionally via
// tools/make_record_golden).
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/common/file_io.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

std::vector<uint8_t> ReadFixture(const std::string& name) {
  const std::string path = std::string(KAROUSOS_FIXTURE_DIR) + "/record_golden/" + name;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << "missing fixture " << path;
  return bytes ? std::vector<uint8_t>(bytes->begin(), bytes->end()) : std::vector<uint8_t>{};
}

struct FixtureSpec {
  const char* name;
  const char* app;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t epoch_requests;
};

// Must match tools/make_record_golden.cc exactly.
constexpr FixtureSpec kFixtures[] = {
    {"stacks120", "stacks", WorkloadKind::kMixed, 120, 10, 7},
    {"motd60", "motd", WorkloadKind::kWriteHeavy, 60, 6, 13},
    // Hot-key contention: aborted transactions, retries, and cross-epoch
    // transaction windows in the advice bytes.
    {"auction90", "auction", WorkloadKind::kAuctionMix, 90, 12, 9},
};

ServerRunResult RunFixtureWorkload(const FixtureSpec& spec) {
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
  return server.Run(inputs);
}

class AdviceGoldenTest : public ::testing::TestWithParam<FixtureSpec> {};

TEST_P(AdviceGoldenTest, LiveRunMatchesGoldenBytes) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);

  ByteWriter advice_bytes;
  run.advice.Serialize(&advice_bytes);
  EXPECT_EQ(advice_bytes.bytes(), ReadFixture(std::string(spec.name) + ".advice"))
      << "advice wire bytes drifted from the pre-builder record path";

  ByteWriter trace_bytes;
  run.trace.Serialize(&trace_bytes);
  EXPECT_EQ(trace_bytes.bytes(), ReadFixture(std::string(spec.name) + ".trace"));

  EpochSlices slices = SliceRunOwned(run.trace, std::move(run.advice), spec.epoch_requests);
  EXPECT_EQ(EncodeAdviceSegments(slices),
            ReadFixture(std::string(spec.name) + ".advice_segments"))
      << "epoch advice segments drifted (SliceRunOwned vs golden)";
  EXPECT_EQ(EncodeTraceSegments(slices), ReadFixture(std::string(spec.name) + ".trace_segments"));
}

TEST_P(AdviceGoldenTest, GoldenAdviceRoundTripsThroughDeserialize) {
  const FixtureSpec& spec = GetParam();
  std::vector<uint8_t> bytes = ReadFixture(std::string(spec.name) + ".advice");
  ByteReader reader(bytes);
  auto advice = Advice::Deserialize(&reader);
  ASSERT_TRUE(advice.has_value());
  EXPECT_TRUE(reader.AtEnd());

  ByteWriter rewritten;
  advice->Serialize(&rewritten);
  EXPECT_EQ(rewritten.bytes(), bytes);
}

TEST_P(AdviceGoldenTest, MeasureSizeMatchesSerializedLength) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);

  Advice::SizeBreakdown b = run.advice.MeasureSize();
  ByteWriter encoded;
  run.advice.Serialize(&encoded);
  EXPECT_EQ(b.total, encoded.size());
  EXPECT_EQ(b.total, b.tags + b.handler_logs + b.var_logs + b.tx_logs + b.write_order + b.other);
  EXPECT_GT(b.var_logs, 0u);
  EXPECT_GT(b.tx_logs, 0u);
}

// The copying slicer and the owned one must stay byte-interchangeable:
// segments encoded from SliceRun(trace, advice) equal the golden streams, and
// MergeSlices restores the monolithic advice exactly.
TEST_P(AdviceGoldenTest, CopyingSlicerAndMergeMatchGoldenStreams) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);

  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);
  EXPECT_EQ(EncodeTraceSegments(slices), ReadFixture(std::string(spec.name) + ".trace_segments"));
  EXPECT_EQ(EncodeAdviceSegments(slices),
            ReadFixture(std::string(spec.name) + ".advice_segments"));

  Advice merged = MergeSlices(std::move(slices));
  ByteWriter merged_bytes;
  merged.Serialize(&merged_bytes);
  ByteWriter original_bytes;
  run.advice.Serialize(&original_bytes);
  EXPECT_EQ(merged_bytes.bytes(), original_bytes.bytes());
}

// A run that fits in one epoch is sliced whole: its slice is the advice
// itself and the whole trace, with nothing to import. A variable log with no
// entries is dropped, as the per-entry slicer of a multi-epoch run drops it.
TEST_P(AdviceGoldenTest, OneEpochSliceIsTheWholeRun) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  ByteWriter original;
  run.advice.Serialize(&original);
  Advice with_empty_log = run.advice;
  VarId empty_vid = 1;
  while (with_empty_log.var_logs.count(empty_vid) != 0) {
    ++empty_vid;
  }
  with_empty_log.var_logs[empty_vid];

  for (uint64_t epoch_requests : {uint64_t{0}, kDefaultEpochRequests}) {
    EpochSlices slices = SliceRun(run.trace, with_empty_log, epoch_requests);
    ASSERT_EQ(slices.segments.size(), 1u) << epoch_requests;
    const EpochSegment& only = slices.segments[0];
    ByteWriter sliced;
    only.advice.Serialize(&sliced);
    EXPECT_EQ(sliced.bytes(), original.bytes()) << epoch_requests;
    EXPECT_EQ(only.window.size(), run.trace.events.size());
    EXPECT_TRUE(only.imports.tx_ops.empty());
    EXPECT_TRUE(only.imports.var_entries.empty());
  }
  EpochSlices multi = SliceRun(run.trace, with_empty_log, spec.epoch_requests);
  ASSERT_GT(multi.segments.size(), 1u);
  ByteWriter merged;
  MergeSlices(std::move(multi)).Serialize(&merged);
  EXPECT_EQ(merged.bytes(), original.bytes());
}

INSTANTIATE_TEST_SUITE_P(RecordGolden, AdviceGoldenTest, ::testing::ValuesIn(kFixtures),
                         [](const ::testing::TestParamInfo<FixtureSpec>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace karousos
