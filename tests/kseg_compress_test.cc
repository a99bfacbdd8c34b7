// Storage-class advice compression, end to end: every stage combination must
// decode back to byte-identical advice (decode(encode(x)) == x at the Advice
// level), the audit verdict must be bit-identical between compressed and raw
// streams across the full epoch/threads matrix, and corrupted
// compressed containers must reject cleanly — mirroring
// tests/segment_corruption_test.cc for the v2 flagged format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/apps/app.h"
#include "src/audit/stream.h"
#include "src/common/kcodec.h"
#include "src/common/segment.h"
#include "src/server/kseg_codec.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

struct FixtureSpec {
  const char* name;
  const char* app;
  WorkloadKind kind;
  size_t requests;
  int concurrency;
  uint64_t epoch_requests;
};

// The same three workloads the record-golden fixtures pin: coverage of all
// advice components, hot-key contention, and cross-epoch references.
constexpr FixtureSpec kFixtures[] = {
    {"stacks120", "stacks", WorkloadKind::kMixed, 120, 10, 7},
    {"motd60", "motd", WorkloadKind::kWriteHeavy, 60, 6, 13},
    {"auction90", "auction", WorkloadKind::kAuctionMix, 90, 12, 9},
};

AppSpec MakeApp(const std::string& name) {
  if (name == "motd") {
    return MakeMotdApp();
  }
  if (name == "stacks") {
    return MakeStacksApp();
  }
  if (name == "auction") {
    return MakeAuctionApp();
  }
  return MakeWikiApp();
}

ServerRunResult RunFixtureWorkload(const FixtureSpec& spec) {
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = spec.requests;
  wl.seed = 7;
  wl.connections = spec.concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  AppSpec app = MakeApp(spec.app);
  ServerConfig config;
  config.concurrency = spec.concurrency;
  config.seed = 7;
  config.epoch_requests = spec.epoch_requests;
  Server server(*app.program, config);
  return server.Run(inputs);
}

std::vector<SegmentRecord> WalkFrames(const std::vector<uint8_t>& bytes) {
  std::string error;
  auto reader = SegmentReader::FromBytes(bytes.data(), bytes.size(), &error);
  EXPECT_NE(reader, nullptr) << error;
  std::vector<SegmentRecord> frames;
  if (!reader) {
    return frames;
  }
  SegmentRecord rec;
  while (reader->Next(&rec)) {
    frames.push_back(rec);
  }
  EXPECT_TRUE(reader->ok()) << reader->error();
  return frames;
}

class KsegCompressTest : public ::testing::TestWithParam<FixtureSpec> {};

// decode(encode(x)) == x, at the byte level of the raw encoding: every stage
// combination's frames decode to structures whose raw serialization equals
// the raw frame's payload exactly.
TEST_P(KsegCompressTest, AllStageCombinationsRoundTripByteIdentically) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);

  const std::vector<SegmentRecord> raw_trace = WalkFrames(EncodeTraceSegments(slices));
  const std::vector<SegmentRecord> raw_advice = WalkFrames(EncodeAdviceSegments(slices));

  for (uint8_t flags = 0; flags <= kFrameFlagsKnownMask; ++flags) {
    const KsegCompression c = KsegCompression::FromFlags(flags);
    SCOPED_TRACE("stages=0x" + std::to_string(flags));

    std::vector<uint8_t> trace_bytes = EncodeTraceSegments(slices, c);
    std::vector<uint8_t> advice_bytes = EncodeAdviceSegments(slices, c);
    std::vector<SegmentRecord> trace_frames = WalkFrames(trace_bytes);
    std::vector<SegmentRecord> advice_frames = WalkFrames(advice_bytes);
    ASSERT_EQ(trace_frames.size(), raw_trace.size());
    ASSERT_EQ(advice_frames.size(), raw_advice.size());

    for (size_t i = 0; i < trace_frames.size(); ++i) {
      const SegmentRecord& rec = trace_frames[i];
      EXPECT_EQ(rec.epoch, raw_trace[i].epoch);
      // A frame never carries flags that were not requested; the block flag
      // may drop per-frame when blocking did not shrink the payload.
      EXPECT_EQ(rec.flags & ~c.Flags(), 0);
      auto window = DecodeTraceSegmentPayload(rec.payload, rec.flags);
      ASSERT_TRUE(window.has_value()) << "trace epoch " << rec.epoch;
      ByteWriter reserialized;
      SerializeTraceEvents(*window, &reserialized);
      EXPECT_EQ(reserialized.bytes(), raw_trace[i].payload) << "trace epoch " << rec.epoch;
    }
    for (size_t i = 0; i < advice_frames.size(); ++i) {
      const SegmentRecord& rec = advice_frames[i];
      EXPECT_EQ(rec.epoch, raw_advice[i].epoch);
      EXPECT_EQ(rec.flags & ~c.Flags(), 0);
      auto decoded = DecodeAdviceSegmentPayload(rec.payload, rec.flags);
      ASSERT_TRUE(decoded.has_value()) << "advice epoch " << rec.epoch;
      ByteWriter reserialized;
      decoded->advice.Serialize(&reserialized);
      decoded->imports.Serialize(&reserialized);
      EXPECT_EQ(reserialized.bytes(), raw_advice[i].payload) << "advice epoch " << rec.epoch;
    }
  }
}

// The no-stage config must forward to the raw (v1) encoder bit for bit, and
// the full stack must actually shrink the advice stream.
TEST_P(KsegCompressTest, RawConfigIsByteIdenticalAndFullStackShrinks) {
  const FixtureSpec& spec = GetParam();
  ServerRunResult run = RunFixtureWorkload(spec);
  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);

  EXPECT_EQ(EncodeAdviceSegments(slices, KsegCompression{}), EncodeAdviceSegments(slices));
  EXPECT_EQ(EncodeTraceSegments(slices, KsegCompression{}), EncodeTraceSegments(slices));

  const size_t raw = EncodeAdviceSegments(slices).size();
  const size_t lanes_dict =
      EncodeAdviceSegments(slices, KsegCompression{true, true, false}).size();
  const size_t full = EncodeAdviceSegments(slices, KsegCompression::All()).size();
  EXPECT_LT(lanes_dict, raw) << "lanes+dict must shrink the advice stream";
  EXPECT_LE(full, lanes_dict) << "the block stage never grows a stream (flag drops instead)";
  EXPECT_LT(full, raw / 2) << "full stack should at least halve advice bytes";
}

// The server-side emission path (ServerConfig::segment_compression) must
// produce exactly what the verifier-side slicer + compressed encoder produce.
TEST_P(KsegCompressTest, ServerEmissionMatchesSlicerEncoding) {
  const FixtureSpec& spec = GetParam();
  WorkloadConfig wl;
  wl.app = spec.app;
  wl.kind = spec.kind;
  wl.requests = spec.requests;
  wl.seed = 7;
  wl.connections = spec.concurrency;
  std::vector<Value> inputs = GenerateWorkload(wl);

  AppSpec app = MakeApp(spec.app);
  ServerConfig config;
  config.concurrency = spec.concurrency;
  config.seed = 7;
  config.epoch_requests = spec.epoch_requests;
  config.segment_compression = KsegCompression::All();
  Server server(*app.program, config);
  ServerRunResult run = server.Run(inputs);

  EpochSlices slices = SliceRun(run.trace, run.advice, spec.epoch_requests);
  EXPECT_EQ(run.trace_segments, EncodeTraceSegments(slices, KsegCompression::All()));
  EXPECT_EQ(run.advice_segments, EncodeAdviceSegments(slices, KsegCompression::All()));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, KsegCompressTest, ::testing::ValuesIn(kFixtures),
                         [](const ::testing::TestParamInfo<FixtureSpec>& param) {
                           return std::string(param.param.name);
                         });

// Audit verdicts must be bit-identical between raw and compressed streams
// across epoch sizes x threads — the compression layer is
// invisible to the audit's semantics.
TEST(KsegCompressDifferentialTest, VerdictsMatchRawAcrossMatrix) {
  struct AppRun {
    const char* app;
    WorkloadKind kind;
    size_t requests;
    int concurrency;
  };
  const AppRun runs[] = {
      {"stacks", WorkloadKind::kMixed, 60, 6},
      {"auction", WorkloadKind::kAuctionMix, 72, 12},
  };
  const uint64_t epoch_sizes[] = {1, 50, 0};  // 0 = one epoch holding everything.
  const unsigned thread_counts[] = {1, 4};

  for (const AppRun& r : runs) {
    WorkloadConfig wl;
    wl.app = r.app;
    wl.kind = r.kind;
    wl.requests = r.requests;
    wl.seed = 7;
    wl.connections = r.concurrency;
    std::vector<Value> inputs = GenerateWorkload(wl);
    AppSpec app = MakeApp(r.app);
    ServerConfig config;
    config.concurrency = r.concurrency;
    config.seed = 7;
    Server server(*app.program, config);
    ServerRunResult run = server.Run(inputs);

    for (uint64_t epoch_requests : epoch_sizes) {
      EpochSlices slices = SliceRun(run.trace, run.advice, epoch_requests);
      const std::vector<uint8_t> raw_trace = EncodeTraceSegments(slices);
      const std::vector<uint8_t> raw_advice = EncodeAdviceSegments(slices);
      const std::vector<uint8_t> comp_trace =
          EncodeTraceSegments(slices, KsegCompression::All());
      const std::vector<uint8_t> comp_advice =
          EncodeAdviceSegments(slices, KsegCompression::All());

      // Static model check: same outcome on both encodings.
      CheckResult raw_check = CheckSegmentStreams(raw_trace, raw_advice, epoch_requests);
      CheckResult comp_check = CheckSegmentStreams(comp_trace, comp_advice, epoch_requests);
      EXPECT_EQ(raw_check.ok, comp_check.ok);
      EXPECT_EQ(raw_check.reason, comp_check.reason);
      EXPECT_EQ(raw_check.rule, comp_check.rule);
      EXPECT_EQ(raw_check.epochs, comp_check.epochs);

      for (unsigned threads : thread_counts) {
        SCOPED_TRACE(std::string(r.app) + " epoch=" + std::to_string(epoch_requests) +
                     " threads=" + std::to_string(threads));
        VerifierConfig vc;
        vc.threads = threads;
        StreamAuditResult raw_audit =
            AuditSegments(app, raw_trace, raw_advice, vc, epoch_requests);
        StreamAuditResult comp_audit =
            AuditSegments(app, comp_trace, comp_advice, vc, epoch_requests);
        EXPECT_TRUE(raw_audit.audit.accepted) << raw_audit.audit.reason;
        EXPECT_EQ(raw_audit.audit.accepted, comp_audit.audit.accepted);
        EXPECT_EQ(raw_audit.audit.reason, comp_audit.audit.reason);
        EXPECT_EQ(raw_audit.audit.rule, comp_audit.audit.rule);
        EXPECT_EQ(raw_audit.audit.diagnostics.size(), comp_audit.audit.diagnostics.size());
        EXPECT_EQ(raw_audit.epochs, comp_audit.epochs);
      }
    }
  }
}

// --- Corruption hardening on compressed containers ---------------------------

struct CompressedPair {
  std::vector<uint8_t> trace_bytes;
  std::vector<uint8_t> advice_bytes;
  uint64_t epoch_requests = 4;
};

// Small but real: multiple epochs, multi-byte payloads, all stages on.
CompressedPair MakeCompressedPair() {
  WorkloadConfig wl;
  wl.app = "motd";
  wl.kind = WorkloadKind::kWriteHeavy;
  wl.requests = 12;
  wl.seed = 7;
  wl.connections = 3;
  std::vector<Value> inputs = GenerateWorkload(wl);
  AppSpec app = MakeMotdApp();
  ServerConfig config;
  config.concurrency = 3;
  config.seed = 7;
  Server server(*app.program, config);
  ServerRunResult run = server.Run(inputs);
  EpochSlices slices = SliceRun(run.trace, run.advice, 4);
  CompressedPair out;
  out.trace_bytes = EncodeTraceSegments(slices, KsegCompression::All());
  out.advice_bytes = EncodeAdviceSegments(slices, KsegCompression::All());
  return out;
}

// Truncating the compressed advice stream anywhere must reject through the
// KAR-SEG rules (and never crash or accept).
TEST(KsegCompressCorruptionTest, TruncationAtEveryByteRejects) {
  CompressedPair pair = MakeCompressedPair();
  CheckResult pristine =
      CheckSegmentStreams(pair.trace_bytes, pair.advice_bytes, pair.epoch_requests);
  ASSERT_TRUE(pristine.ok) << pristine.reason;

  for (size_t cut = 0; cut < pair.advice_bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(pair.advice_bytes.begin(),
                                   pair.advice_bytes.begin() + static_cast<ptrdiff_t>(cut));
    CheckResult res = CheckSegmentStreams(pair.trace_bytes, truncated, pair.epoch_requests);
    EXPECT_FALSE(res.ok) << "truncated advice stream accepted at cut " << cut;
    EXPECT_EQ(res.rule.rfind("KAR-SEG", 0), 0u) << "cut " << cut << ": rule " << res.rule;
  }
}

// Bit-flip hardening, mirroring segment_corruption_test: flips inside any
// CRC-sealed payload (or the CRC itself) must hard-reject; flips in the
// framing bytes — including the flags byte, which the CRC does not cover —
// must produce a clean outcome, and a flags flip that still names known
// stages must be caught by the stage decoders (mis-staged payloads never
// parse on these containers).
TEST(KsegCompressCorruptionTest, BitFlipAtEveryPositionIsClean) {
  CompressedPair pair = MakeCompressedPair();
  const std::vector<uint8_t>& bytes = pair.advice_bytes;

  // Map each frame: [header_begin, payload_begin) is framing; the payload and
  // the 4 CRC bytes before it are sealed.
  std::vector<SegmentRecord> frames = WalkFrames(bytes);
  ASSERT_FALSE(frames.empty());
  std::vector<std::pair<size_t, size_t>> sealed;  // [begin, end) byte ranges.
  std::vector<size_t> flag_offsets;
  for (size_t i = 0; i < frames.size(); ++i) {
    size_t frame_end = i + 1 < frames.size() ? static_cast<size_t>(frames[i + 1].offset)
                                             : bytes.size();
    size_t payload_begin = frame_end - frames[i].payload.size();
    sealed.emplace_back(payload_begin - 4, frame_end);  // CRC + payload.
    flag_offsets.push_back(static_cast<size_t>(frames[i].offset) + 1);
  }
  auto in_sealed = [&](size_t pos) {
    for (const auto& [begin, end] : sealed) {
      if (pos >= begin && pos < end) return true;
    }
    return false;
  };
  auto is_flags_byte = [&](size_t pos) {
    for (size_t off : flag_offsets) {
      if (pos == off) return true;
    }
    return false;
  };

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[pos] ^= static_cast<uint8_t>(1u << bit);

      // Lightweight walk: container layer + flag-aware payload decode. This
      // is the exact decode funnel the audit's cursor uses.
      std::string error;
      auto reader = SegmentReader::FromBytes(flipped.data(), flipped.size(), &error);
      bool rejected = reader == nullptr;
      if (reader) {
        SegmentRecord rec;
        while (reader->Next(&rec)) {
          if (rec.kind != SegmentKind::kAdvice ||
              !DecodeAdviceSegmentPayload(rec.payload, rec.flags).has_value()) {
            rejected = true;
            break;
          }
        }
        if (!reader->ok()) {
          rejected = true;
        }
      }
      if (in_sealed(pos)) {
        EXPECT_TRUE(rejected) << "flip at byte " << pos << " bit " << bit
                              << " survived the sealed region";
      } else if (is_flags_byte(pos)) {
        // The CRC does not cover the flags byte, and a flip inside the known
        // mask can re-stage the payload without breaking its parse structure
        // (a lanes flip reinterprets the same varints). The guarantee lives
        // one layer up: the static model check must reject the mis-staged
        // decode (garbled rids never match the trace).
        if (!rejected) {
          CheckResult res =
              CheckSegmentStreams(pair.trace_bytes, flipped, pair.epoch_requests);
          EXPECT_FALSE(res.ok)
              << "flags flip at byte " << pos << " bit " << bit << " was accepted";
        }
      }
      // Other framing flips may or may not be detectable here (an epoch flip
      // is caught by the sequencing rule, not the decoder); the requirement
      // is the clean walk above — no crash, no unbounded allocation.
    }
  }
}

// The dictionary transcoder has its own recursive Value decoder; it must cap
// nesting exactly like ByteReader::ReadValue, so a 50,000-deep payload (which
// overflows the stack uncapped) is malformed while the cap depth decodes.
TEST(KsegCompressCorruptionTest, DictStageRejectsTooDeepValue) {
  const Value sentinel(int64_t{0x123456789A});
  Advice advice;
  advice.var_logs[7][OpRef{1, 2, 3}] =
      VarLogEntry{VarLogEntry::Kind::kWrite, sentinel, OpRef{}};
  KsegCompression dict_only;
  dict_only.dict = true;
  ByteWriter encoded;
  EncodeCompactAdvicePayload(advice, ContinuityImports{}, dict_only, &encoded);
  ByteWriter needle;
  needle.WriteValue(sentinel);  // Ints encode alike with and without the dict stage.
  const std::vector<uint8_t>& bytes = encoded.bytes();
  auto at = std::search(bytes.begin(), bytes.end(), needle.bytes().begin(), needle.bytes().end());
  ASSERT_NE(at, bytes.end());
  for (size_t depth : {kMaxValueDepth, size_t{50000}}) {
    std::vector<uint8_t> spliced(bytes.begin(), at);
    for (size_t i = 0; i < depth; ++i) {
      spliced.push_back(static_cast<uint8_t>(Value::Kind::kList));
      spliced.push_back(1);
    }
    spliced.push_back(static_cast<uint8_t>(Value::Kind::kNull));
    spliced.insert(spliced.end(), at + static_cast<ptrdiff_t>(needle.size()), bytes.end());
    EXPECT_EQ(DecodeCompactAdvicePayload(spliced.data(), spliced.size(), dict_only).has_value(),
              depth <= kMaxValueDepth)
        << "depth " << depth;
  }
}

// The transcoder's count headers are bounded by their entries' minimum
// encoded size (one byte a field): a trace or advice body whose count claims
// remaining() entries is rejected up front under every stage set.
TEST(KsegCompressCorruptionTest, CountHeaderClaimingRemainingBytesRejects) {
  constexpr size_t kTail = 64;
  KsegCompression none;
  KsegCompression lanes;
  lanes.lanes = true;
  for (const KsegCompression& c : {none, lanes}) {
    ByteWriter trace;
    trace.WriteVarint(kTail);
    std::vector<uint8_t> bytes = trace.Take();
    bytes.resize(bytes.size() + kTail, 0);
    EXPECT_FALSE(DecodeCompactTracePayload(bytes.data(), bytes.size(), c).has_value());

    ByteWriter advice;
    advice.WriteVarint(0);      // Tags.
    advice.WriteVarint(1);      // One handler log...
    advice.WriteVarint(1);      // ... for rid 1 ...
    advice.WriteVarint(kTail);  // ... claiming every remaining byte as an entry.
    bytes = advice.Take();
    bytes.resize(bytes.size() + kTail, 0);
    EXPECT_FALSE(DecodeCompactAdvicePayload(bytes.data(), bytes.size(), c).has_value());
  }
}

}  // namespace
}  // namespace karousos
