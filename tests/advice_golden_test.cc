// Wire-format pinning for the record path: the streaming AdviceBuilder (and
// the move-based epoch slicer) must produce byte-identical advice, trace, and
// segment streams to the committed pre-rewrite fixtures
// (tests/fixtures/record_golden/, regenerated only intentionally via
// tools/make_record_golden).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/common/file_io.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
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

// The monolithic files are the frame grammar with every stage off: the one
// stage-off frame of a one-epoch slicing holds the golden advice bytes, then
// the two zero import counts, and the golden trace bytes.
TEST_P(AdviceGoldenTest, StageOffFramesHoldTheMonolithicBytes) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  const EpochSlices slices = SliceRun(run.trace, run.advice, 0);
  auto only_epoch_payload = [](const std::vector<uint8_t>& container) {
    std::string error;
    auto reader = SegmentReader::FromBytes(container.data(), container.size(), &error);
    EXPECT_NE(reader, nullptr) << error;
    std::vector<std::vector<uint8_t>> payloads;
    SegmentRecord rec;
    while (reader != nullptr && reader->Next(&rec)) {
      if (rec.kind != SegmentKind::kEpochManifest) {
        EXPECT_EQ(rec.flags, 0);
        payloads.push_back(rec.payload);
      }
    }
    EXPECT_EQ(payloads.size(), 1u);
    return payloads.empty() ? std::vector<uint8_t>{} : payloads.front();
  };
  std::vector<uint8_t> advice = ReadFixture(std::string(spec.name) + ".advice");
  advice.push_back(0);  // No tx-op imports.
  advice.push_back(0);  // No var imports.
  EXPECT_EQ(only_epoch_payload(EncodeAdviceSegments(slices, KsegCompression{})), advice);
  EXPECT_EQ(only_epoch_payload(EncodeTraceSegments(slices, KsegCompression{})),
            ReadFixture(std::string(spec.name) + ".trace"));
}

INSTANTIATE_TEST_SUITE_P(RecordGolden, AdviceGoldenTest, ::testing::ValuesIn(kFixtures),
                         [](const ::testing::TestParamInfo<FixtureSpec>& param) {
                           return std::string(param.param.name);
                         });

// --- Fields held in 32 bits ---------------------------------------------------

// A value that fits in 32 bits, unlikely to occur by chance in the bytes.
constexpr uint32_t kSentinel = 0x0ABCDEF1;
// The same field widened past 32 bits; truncated, it would read as 3.
constexpr uint64_t kWide = (uint64_t{1} << 32) + 3;

std::vector<uint8_t> VarintBytes(uint64_t v) {
  ByteWriter w;
  w.WriteVarint(v);
  return w.Take();
}

// `bytes` with the one occurrence of varint `from` replaced by varint `to`.
std::vector<uint8_t> Splice(const std::vector<uint8_t>& bytes, uint64_t from, uint64_t to) {
  const std::vector<uint8_t> needle = VarintBytes(from);
  auto at = std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
  EXPECT_NE(at, bytes.end());
  EXPECT_EQ(std::search(at + 1, bytes.end(), needle.begin(), needle.end()), bytes.end());
  if (at == bytes.end()) {
    return bytes;
  }
  std::vector<uint8_t> out(bytes.begin(), at);
  const std::vector<uint8_t> replacement = VarintBytes(to);
  out.insert(out.end(), replacement.begin(), replacement.end());
  out.insert(out.end(), at + static_cast<ptrdiff_t>(needle.size()), bytes.end());
  return out;
}

struct NarrowField {
  const char* name;
  // Opnums of a log run as a lane: under the lanes stage the first one is
  // stored as a zigzag delta from 0.
  bool lane;
  Advice advice;
  ContinuityImports imports;
};

std::vector<NarrowField> NarrowFields() {
  std::vector<NarrowField> fields;
  const TxnKey txn{1, 9};
  auto add = [&fields](const char* name, bool lane) -> NarrowField& {
    fields.push_back(NarrowField{name, lane, {}, {}});
    return fields.back();
  };
  add("handler-log opnum", true).advice.handler_logs[1] = {
      HandlerLogEntry{HandlerLogEntry::Kind::kEmit, 5, kSentinel, 6, 0}};
  TxOperation put;
  put.type = TxOpType::kPut;
  put.hid = 5;
  put.opnum = kSentinel;
  put.key = "k";
  put.put_value = Value(int64_t{1});
  add("tx-op opnum", true).advice.tx_logs[txn] = {put};
  TxOperation get;
  get.type = TxOpType::kGet;
  get.hid = 5;
  get.opnum = 1;
  get.key = "k";
  get.get_found = true;
  get.get_from = TxOpRef{1, 9, kSentinel};
  add("get_from index", false).advice.tx_logs[txn] = {get};
  add("write-order index", false).advice.write_order = {TxOpRef{1, 9, kSentinel}};
  add("responseEmittedBy opnum", false).advice.response_emitted_by[1] = {5, kSentinel};
  add("opcount", false).advice.opcounts[{1, 5}] = kSentinel;
  ContinuityImports::TxOpImport imp;
  imp.ref = TxOpRef{2, 9, 1};
  imp.txn_present = true;
  imp.op_present = true;
  imp.hid = 5;
  imp.opnum = kSentinel;
  add("tx-import opnum", false).imports.tx_ops = {imp};
  imp.ref.index = kSentinel;
  imp.opnum = 1;
  add("tx-import index", false).imports.tx_ops = {imp};
  return fields;
}

// Each 32-bit field, widened to 2^32 + 3, is malformed in a monolithic file,
// a stage-off frame and an all-stage frame, where a truncating decoder
// would read 3.
TEST(AdviceNarrowFieldTest, WideValuesAreRefused) {
  const KsegCompression lanes_dict{true, true, false};
  for (const NarrowField& field : NarrowFields()) {
    SCOPED_TRACE(field.name);
    const uint64_t lane_from = ZigzagEncode(kSentinel);
    const uint64_t lane_to = ZigzagEncode(static_cast<int64_t>(kWide));

    if (field.imports.empty()) {
      ByteWriter monolithic;
      field.advice.Serialize(&monolithic);
      ByteReader honest(monolithic.bytes());
      EXPECT_TRUE(Advice::Deserialize(&honest).has_value());
      const std::vector<uint8_t> wide = Splice(monolithic.bytes(), kSentinel, kWide);
      ByteReader r(wide);
      EXPECT_FALSE(Advice::Deserialize(&r).has_value());
    }

    ByteWriter stage_off;
    EncodeAdviceSegmentPayload(field.advice, field.imports, KsegCompression{}, &stage_off);
    EXPECT_TRUE(DecodeAdviceSegmentPayload(stage_off.bytes(), 0).has_value());
    EXPECT_FALSE(
        DecodeAdviceSegmentPayload(Splice(stage_off.bytes(), kSentinel, kWide), 0).has_value());

    ByteWriter staged;
    EncodeAdviceSegmentPayload(field.advice, field.imports, lanes_dict, &staged);
    const std::vector<uint8_t> wide =
        field.lane ? Splice(staged.bytes(), lane_from, lane_to)
                   : Splice(staged.bytes(), kSentinel, kWide);
    const uint8_t all = KsegCompression::All().Flags();
    EXPECT_TRUE(DecodeAdviceSegmentPayload(BlockFrameEncode(staged.bytes()), all).has_value());
    EXPECT_FALSE(DecodeAdviceSegmentPayload(BlockFrameEncode(wide), all).has_value());
  }

  // The TxOpRef coordinate codec every state payload shares.
  for (uint64_t index : {uint64_t{3}, kWide}) {
    ByteWriter ref;
    ref.WriteVarint(1);
    ref.WriteFixed64(9);
    ref.WriteVarint(index);
    ByteReader r(ref.bytes());
    auto decoded = DeserializeTxOpRef(&r);
    EXPECT_EQ(decoded.has_value(), index == 3) << index;
  }
}

}  // namespace
}  // namespace karousos
