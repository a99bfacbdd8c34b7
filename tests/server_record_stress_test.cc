// Record-path stress: stacks at 600 requests sliced and encoded at extreme
// epoch sizes. Every frame of the encoded segment streams must decode, and
// the decoded advice frames must merge back to the monolithic advice: equal
// in every value (tests/full_value_advice.h), and equal in bytes when the
// run is one frame.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/common/segment.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"
#include "tests/full_value_advice.h"

namespace karousos {
namespace {

constexpr size_t kRequests = 600;
constexpr int kConcurrency = 15;

std::vector<Value> StacksWorkload() {
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = kRequests;
  wl.seed = 7;
  wl.connections = kConcurrency;
  return GenerateWorkload(wl);
}

ServerRunResult RunStacks() {
  AppSpec app = MakeStacksApp();
  ServerConfig config;
  config.concurrency = kConcurrency;
  config.seed = 7;
  Server server(*app.program, config);
  return server.Run(StacksWorkload());
}

std::vector<uint8_t> AdviceBytes(const Advice& advice) {
  ByteWriter w;
  advice.Serialize(&w);
  return w.bytes();
}

// Decodes every frame of a segment container, checking kind and ascending
// epoch numbering, and that each payload parses.
void CheckStreamDecodes(const std::vector<uint8_t>& bytes, SegmentKind want_kind,
                        size_t* frames_out) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<LintDiagnostic> diags;
  ASSERT_TRUE(ReadEpochManifest(reader.get(), "stream", &diags).has_value());
  SegmentRecord rec;
  size_t frames = 0;
  while (reader->Next(&rec)) {
    EXPECT_EQ(rec.kind, want_kind);
    EXPECT_EQ(rec.epoch, frames);
    if (want_kind == SegmentKind::kTrace) {
      EXPECT_TRUE(DecodeTraceSegmentPayload(rec.payload).has_value())
          << "trace frame " << frames << " payload failed to decode";
    } else {
      EXPECT_TRUE(DecodeAdviceSegmentPayload(rec.payload).has_value())
          << "advice frame " << frames << " payload failed to decode";
    }
    ++frames;
  }
  EXPECT_TRUE(reader->ok()) << reader->error();
  *frames_out = frames;
}

class ServerRecordStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerRecordStressTest, SegmentsDecodeAndMergeBack) {
  const uint64_t epoch_requests = GetParam();
  ServerRunResult run = RunStacks();
  const std::vector<uint8_t> want = FullValueAdviceBytes(run.advice);
  const std::vector<uint8_t> want_stored = AdviceBytes(run.advice);
  EpochSlices slices = SliceRunOwned(run.trace, std::move(run.advice), epoch_requests);
  const std::vector<uint8_t> trace_segments = EncodeTraceSegments(slices);
  const std::vector<uint8_t> advice_segments = EncodeAdviceSegments(slices);

  const uint64_t expected_epochs =
      epoch_requests == 0 ? 1 : (kRequests + epoch_requests - 1) / epoch_requests;
  size_t trace_frames = 0;
  size_t advice_frames = 0;
  CheckStreamDecodes(trace_segments, SegmentKind::kTrace, &trace_frames);
  CheckStreamDecodes(advice_segments, SegmentKind::kAdvice, &advice_frames);
  EXPECT_EQ(trace_frames, expected_epochs);
  EXPECT_EQ(advice_frames, expected_epochs);

  // Reassembling the decoded frames must restore the monolithic advice.
  std::string error;
  auto reader = SegmentReader::FromBytes(advice_segments.data(), advice_segments.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<LintDiagnostic> diags;
  EpochSlices decoded;
  decoded.epoch_requests = ReadEpochManifest(reader.get(), "advice", &diags).value_or(0);
  EXPECT_EQ(decoded.epoch_requests, epoch_requests);
  SegmentRecord rec;
  while (reader->Next(&rec)) {
    auto payload = DecodeAdviceSegmentPayload(rec.payload);
    ASSERT_TRUE(payload.has_value());
    EpochSegment seg;
    seg.epoch = rec.epoch;
    seg.advice = std::move(payload->advice);
    seg.imports = std::move(payload->imports);
    decoded.segments.push_back(std::move(seg));
  }
  ASSERT_TRUE(reader->ok()) << reader->error();
  Advice merged = MergeSlices(std::move(decoded));
  EXPECT_EQ(FullValueAdviceBytes(merged), want);
  // A frame's decode shares nodes only within the frame, so a chain that
  // crossed frames re-encodes in full; one frame keeps every patch.
  if (epoch_requests == kRequests) {
    EXPECT_EQ(AdviceBytes(merged), want_stored);
  }
}

INSTANTIATE_TEST_SUITE_P(EpochSizes, ServerRecordStressTest,
                         ::testing::Values<uint64_t>(1, 50, kRequests),
                         [](const ::testing::TestParamInfo<uint64_t>& param) {
                           return "epoch" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace karousos
