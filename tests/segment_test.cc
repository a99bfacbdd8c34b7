// Segment container wire format: golden bytes (the layout is a compatibility
// promise — collectors and verifiers may be built from different revisions),
// roundtrips through writer/reader, format-version rejection, the epoch
// manifest, and the epoch slicer's structural invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/segment.h"
#include "src/common/serde.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// The exact bytes of a one-frame container: magic, version, then
// kind=kTrace(1) | flags=0 | epoch=5 | length=9 | crc32("123456789")
// little-endian | payload. 0xCBF43926 is the standard CRC-32 check value, so this test pins
// the polynomial, the init/final xor, and the byte order all at once.
TEST(SegmentFormatTest, GoldenBytes) {
  SegmentWriter writer;
  writer.Append(SegmentKind::kTrace, 5, Bytes("123456789"));

  const std::vector<uint8_t> expected = {
      'K', 'S', 'E', 'G',      // magic
      0x03,                    // format version
      0x01,                    // kind: kTrace
      0x00,                    // flags: raw
      0x05,                    // epoch varint
      0x09,                    // payload length varint
      0x26, 0x39, 0xf4, 0xcb,  // crc 0xCBF43926, little-endian
      '1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(SegmentFormatTest, RoundtripMultipleFrames) {
  SegmentWriter writer;
  writer.Append(SegmentKind::kTrace, 0, Bytes("window-zero"));
  writer.Append(SegmentKind::kAdvice, 0, Bytes("slice-zero"));
  writer.Append(SegmentKind::kTrace, 1, {});  // Empty payloads are legal.
  writer.Append(SegmentKind::kCheckpoint, 1, Bytes("carry"));
  std::vector<uint8_t> bytes = writer.Take();

  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  SegmentRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.kind, SegmentKind::kTrace);
  EXPECT_EQ(rec.epoch, 0u);
  EXPECT_EQ(rec.payload, Bytes("window-zero"));
  EXPECT_EQ(rec.crc, Crc32(rec.payload));
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.kind, SegmentKind::kAdvice);
  EXPECT_EQ(rec.payload, Bytes("slice-zero"));
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.kind, SegmentKind::kTrace);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_TRUE(rec.payload.empty());
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.kind, SegmentKind::kCheckpoint);
  EXPECT_EQ(rec.payload, Bytes("carry"));
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_TRUE(reader->ok()) << reader->error();
}

// The retired layouts (v1 without the flags byte, v2 with it) and any later
// version are refused at the header.
TEST(SegmentFormatTest, OtherFormatVersionsAreRejected) {
  SegmentWriter writer;
  writer.Append(SegmentKind::kTrace, 0, Bytes("payload"));
  std::vector<uint8_t> bytes = writer.Take();
  for (uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{kSegmentFormatVersion + 1}}) {
    bytes[4] = version;
    std::string error;
    auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
    EXPECT_EQ(reader, nullptr) << "version " << int{version};
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

TEST(SegmentFormatTest, FlagsRoundtripAndUnknownBitsReject) {
  SegmentWriter writer;
  writer.Append(SegmentKind::kTrace, 0, kFrameFlagLanes | kFrameFlagDict, Bytes("compact"));
  writer.Append(SegmentKind::kAdvice, 0, /*flags=*/0, Bytes("raw"));
  std::vector<uint8_t> bytes = writer.Take();

  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  SegmentRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.flags, kFrameFlagLanes | kFrameFlagDict);
  EXPECT_EQ(rec.payload, Bytes("compact"));
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.flags, 0u);
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_TRUE(reader->ok()) << reader->error();

  // The flags byte is the 6th byte of the first frame (header is 5 bytes);
  // setting a bit outside the known mask must reject.
  bytes[6] |= 0x80;
  auto reject = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  ASSERT_NE(reject, nullptr) << error;
  EXPECT_FALSE(reject->Next(&rec));
  EXPECT_FALSE(reject->ok());
  EXPECT_NE(reject->error().find("unknown frame flags"), std::string::npos) << reject->error();
}

TEST(SegmentFormatTest, WrongMagicIsRejected) {
  std::vector<uint8_t> bytes = Bytes("KSEX");
  bytes.push_back(kSegmentFormatVersion);
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(LooksLikeSegmentFile(bytes));

  SegmentWriter writer;
  writer.Append(SegmentKind::kTrace, 0, {});
  EXPECT_TRUE(LooksLikeSegmentFile(writer.bytes()));
}

// --- Slicer invariants over a real run -------------------------------------

ServerRunResult RunStacks(size_t requests) {
  AppSpec app = MakeStacksApp();
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = requests;
  ServerConfig config;
  config.concurrency = 8;
  Server server(*app.program, config);
  return server.Run(GenerateWorkload(wl));
}

TEST(EpochSlicerTest, WindowsConcatenateToTheFullTrace) {
  ServerRunResult run = RunStacks(60);
  EpochSlices slices = SliceRun(run.trace, run.advice, 7);
  ASSERT_FALSE(slices.segments.empty());
  std::vector<TraceEvent> rebuilt;
  uint64_t expected_epoch = 0;
  for (const EpochSegment& seg : slices.segments) {
    EXPECT_EQ(seg.epoch, expected_epoch++);
    rebuilt.insert(rebuilt.end(), seg.window.begin(), seg.window.end());
  }
  ASSERT_EQ(rebuilt.size(), run.trace.events.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].kind, run.trace.events[i].kind) << "event " << i;
    EXPECT_EQ(rebuilt[i].rid, run.trace.events[i].rid) << "event " << i;
  }
}

TEST(EpochSlicerTest, WriteOrderChunksConcatenateToTheGlobalOrder) {
  ServerRunResult run = RunStacks(60);
  EpochSlices slices = SliceRun(run.trace, run.advice, 7);
  WriteOrder rebuilt;
  for (const EpochSegment& seg : slices.segments) {
    rebuilt.insert(rebuilt.end(), seg.advice.write_order.begin(),
                   seg.advice.write_order.end());
  }
  EXPECT_EQ(rebuilt, run.advice.write_order);
}

TEST(EpochSlicerTest, AdviceIsPartitionedByOwningRid) {
  ServerRunResult run = RunStacks(60);
  const uint64_t kEpochSize = 7;
  EpochSlices slices = SliceRun(run.trace, run.advice, kEpochSize);
  size_t tags = 0;
  for (const EpochSegment& seg : slices.segments) {
    for (const auto& [rid, tag] : seg.advice.tags) {
      uint64_t owner = EpochOfRid(rid, kEpochSize);
      // Beyond-trace rids clamp into the final slice; everything else lands
      // exactly in its owning epoch.
      EXPECT_EQ(seg.epoch, std::min<uint64_t>(owner, slices.segments.size() - 1));
      ++tags;
    }
  }
  EXPECT_EQ(tags, run.advice.tags.size());
}

TEST(EpochSlicerTest, SegmentStreamEncodingRoundtrips) {
  ServerRunResult run = RunStacks(30);
  EpochSlices slices = SliceRun(run.trace, run.advice, 5);
  std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices);
  std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices);
  ASSERT_TRUE(LooksLikeSegmentFile(trace_bytes));
  ASSERT_TRUE(LooksLikeSegmentFile(advice_bytes));

  std::string error;
  auto reader = SegmentReader::FromBytes(advice_bytes.data(), advice_bytes.size(), &error);
  ASSERT_NE(reader, nullptr) << error;
  // The container opens by stating the epoch size it was sliced at.
  std::vector<LintDiagnostic> diags;
  EXPECT_EQ(ReadEpochManifest(reader.get(), "advice", &diags), std::optional<uint64_t>(5));
  EXPECT_TRUE(diags.empty());
  SegmentRecord rec;
  size_t frames = 0;
  size_t tags = 0;
  while (reader->Next(&rec)) {
    ASSERT_EQ(rec.kind, SegmentKind::kAdvice);
    auto payload = DecodeAdviceSegmentPayload(rec.payload);
    ASSERT_TRUE(payload.has_value()) << "frame " << frames;
    tags += payload->advice.tags.size();
    ++frames;
  }
  EXPECT_TRUE(reader->ok()) << reader->error();
  EXPECT_EQ(frames, slices.segments.size());
  EXPECT_EQ(tags, run.advice.tags.size());
}

}  // namespace
}  // namespace karousos
