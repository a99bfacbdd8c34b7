// Decoder mutation driver for the advice and trace grammar, the decoder
// behind `Advice::Deserialize`, `Trace::Deserialize` and every KSEG frame
// payload. A seeded, deterministic corpus of byte flips, truncations and
// varint bumps over the checked-in advice and trace files reaches each
// decoder three ways: as a monolithic file, framed with its stages off
// (the same bytes, plus the two import counts for advice) and, mutated from
// the lanes+dict encoding, framed with every stage on. No mutant may crash
// (the asan job runs the `record` label), a monolithic accept must be a
// stage-off frame accept of the same value, and every accepted decode must
// re-encode and decode to the same value. The corpus and acceptance counts
// are pinned, so a decoder that starts accepting or refusing more shows.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_io.h"
#include "src/common/kcodec.h"
#include "src/common/rng.h"
#include "src/server/advice.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"
#include "tests/full_value_advice.h"

namespace karousos {
namespace {

constexpr KsegCompression kLanesDict{true, true, false};

std::vector<uint8_t> ReadFixture(const std::string& name) {
  const std::string path = std::string(KAROUSOS_FIXTURE_DIR) + "/" + name;
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.has_value()) << "missing fixture " << path;
  return bytes ? std::vector<uint8_t>(bytes->begin(), bytes->end()) : std::vector<uint8_t>{};
}

// The corpus over `bytes`: 48 single-bit flips, 12 truncations and 32
// varint bumps, at seeded positions. A bump reads a varint at a position
// and writes it back plus 1 or plus 2^32 (which pushes a 32-bit field out
// of range).
std::vector<std::vector<uint8_t>> Mutants(const std::vector<uint8_t>& bytes, uint64_t seed) {
  std::vector<std::vector<uint8_t>> out;
  Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    std::vector<uint8_t> m = bytes;
    m[rng.Below(m.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
    out.push_back(std::move(m));
  }
  for (int i = 0; i < 12; ++i) {
    const auto cut = static_cast<ptrdiff_t>(rng.Below(bytes.size()));
    out.emplace_back(bytes.begin(), bytes.begin() + cut);
  }
  for (int i = 0; i < 32; ++i) {
    const size_t at = rng.Below(bytes.size());
    ByteReader r(bytes.data() + at, bytes.size() - at);
    const size_t before = r.remaining();
    const std::optional<uint64_t> v = r.ReadVarint();
    if (!v) {
      continue;
    }
    ByteWriter bumped;
    bumped.WriteVarint(*v + (i % 2 == 0 ? 1 : uint64_t{1} << 32));
    std::vector<uint8_t> m(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(at));
    m.insert(m.end(), bumped.bytes().begin(), bumped.bytes().end());
    m.insert(m.end(), bytes.begin() + static_cast<ptrdiff_t>(at + before - r.remaining()),
             bytes.end());
    out.push_back(std::move(m));
  }
  return out;
}

// What a decoded advice frame holds, as bytes: the advice with every write
// in full (so patch planning, which follows node identity, cannot differ)
// and the imports behind an empty advice.
std::vector<uint8_t> Fingerprint(const AdviceSegmentPayload& p) {
  std::vector<uint8_t> out = FullValueAdviceBytes(p.advice);
  ByteWriter imports;
  EncodeAdviceSegmentPayload(Advice{}, p.imports, KsegCompression{}, &imports);
  out.insert(out.end(), imports.bytes().begin(), imports.bytes().end());
  return out;
}

std::vector<uint8_t> Fingerprint(const std::vector<TraceEvent>& events) {
  ByteWriter w;
  SerializeTraceEvents(events, &w);
  return w.Take();
}

std::vector<uint8_t> Framed(const std::vector<uint8_t>& body, const KsegCompression& c) {
  return c.block ? BlockFrameEncode(body) : body;
}

std::vector<uint8_t> Encode(const AdviceSegmentPayload& p, const KsegCompression& c) {
  ByteWriter w;
  EncodeAdviceSegmentPayload(p.advice, p.imports, c, &w);
  return Framed(w.bytes(), c);
}

std::vector<uint8_t> Encode(const std::vector<TraceEvent>& events, const KsegCompression& c) {
  ByteWriter w;
  EncodeTraceSegmentPayload(events, c, &w);
  return Framed(w.bytes(), c);
}

std::optional<AdviceSegmentPayload> DecodeFrame(const std::vector<uint8_t>& payload,
                                                AdviceSegmentPayload*, uint8_t flags) {
  return DecodeAdviceSegmentPayload(payload, flags);
}

std::optional<std::vector<TraceEvent>> DecodeFrame(const std::vector<uint8_t>& payload,
                                                   std::vector<TraceEvent>*, uint8_t flags) {
  return DecodeTraceSegmentPayload(payload, flags);
}

std::optional<AdviceSegmentPayload> DecodeFile(const std::vector<uint8_t>& bytes,
                                               AdviceSegmentPayload*) {
  ByteReader r(bytes);
  auto advice = Advice::Deserialize(&r);
  if (!advice || !r.AtEnd()) {
    return std::nullopt;
  }
  return AdviceSegmentPayload{std::move(*advice), {}};
}

std::optional<std::vector<TraceEvent>> DecodeFile(const std::vector<uint8_t>& bytes,
                                                  std::vector<TraceEvent>*) {
  ByteReader r(bytes);
  auto trace = Trace::Deserialize(&r);
  if (!trace || !r.AtEnd()) {
    return std::nullopt;
  }
  return std::move(trace->events);
}

// The stage-off frame around a monolithic file's bytes.
std::vector<uint8_t> StageOffFrame(const std::vector<uint8_t>& bytes, AdviceSegmentPayload*) {
  std::vector<uint8_t> out = bytes;
  out.push_back(0);  // No tx-op imports.
  out.push_back(0);  // No var imports.
  return out;
}

std::vector<uint8_t> StageOffFrame(const std::vector<uint8_t>& bytes, std::vector<TraceEvent>*) {
  return bytes;
}

struct Counts {
  size_t mutations = 0;
  size_t file_accepted = 0;
  size_t stage_off_accepted = 0;
  size_t all_stage_accepted = 0;
};

// An accepted decode re-encodes under `c` and decodes to the same value.
template <typename T>
void ExpectStableRoundTrip(const T& decoded, const KsegCompression& c, const std::string& what) {
  T* tag = nullptr;
  auto again = DecodeFrame(Encode(decoded, c), tag, c.Flags());
  ASSERT_TRUE(again.has_value()) << what;
  EXPECT_EQ(Fingerprint(*again), Fingerprint(decoded)) << what;
}

// Runs the corpus over one checked-in file; T is AdviceSegmentPayload or a
// trace's event list.
template <typename T>
Counts Drive(const std::string& name, uint64_t seed) {
  T* tag = nullptr;
  Counts counts;
  const std::vector<uint8_t> bytes = ReadFixture(name);
  auto honest = DecodeFile(bytes, tag);
  if (!honest) {
    ADD_FAILURE() << name << " does not decode";
    return counts;
  }
  const KsegCompression stage_off{};
  const KsegCompression all = KsegCompression::All();
  for (const std::vector<uint8_t>& m : Mutants(bytes, seed)) {
    const std::string what = name + " mutant " + std::to_string(counts.mutations);
    ++counts.mutations;
    auto file = DecodeFile(m, tag);
    auto frame = DecodeFrame(StageOffFrame(m, tag), tag, 0);
    if (file) {
      ++counts.file_accepted;
      ExpectStableRoundTrip(*file, stage_off, what);
      EXPECT_TRUE(frame.has_value()) << what;
      if (frame) {
        EXPECT_EQ(Fingerprint(*frame), Fingerprint(*file)) << what;
      }
    }
    if (frame) {
      ++counts.stage_off_accepted;
      ExpectStableRoundTrip(*frame, stage_off, what);
    }
  }

  ByteWriter staged;
  if constexpr (std::is_same_v<T, AdviceSegmentPayload>) {
    EncodeAdviceSegmentPayload(honest->advice, honest->imports, kLanesDict, &staged);
  } else {
    EncodeTraceSegmentPayload(*honest, kLanesDict, &staged);
  }
  for (const std::vector<uint8_t>& m : Mutants(staged.bytes(), seed + 1)) {
    const std::string what = name + " all-stage mutant " + std::to_string(counts.mutations);
    ++counts.mutations;
    auto frame = DecodeFrame(BlockFrameEncode(m), tag, all.Flags());
    if (frame) {
      ++counts.all_stage_accepted;
      ExpectStableRoundTrip(*frame, all, what);
    }
  }
  return counts;
}

struct Pinned {
  const char* file;
  bool advice;
  Counts counts;
};

// Mutations (92 of the file, 92 of its lanes+dict encoding), then accepts:
// monolithic file, stage-off frame, all-stage frame.
const Pinned kPinned[] = {
    {"record_golden/stacks120.advice", true, {184, 52, 52, 44}},
    {"record_golden/motd60.advice", true, {184, 63, 63, 63}},
    {"record_golden/auction90.advice", true, {184, 55, 55, 42}},
    {"lint_bad.advice", true, {184, 58, 58, 53}},
    {"record_golden/stacks120.trace", false, {184, 46, 46, 24}},
    {"record_golden/motd60.trace", false, {184, 63, 63, 63}},
    {"record_golden/auction90.trace", false, {184, 41, 41, 31}},
};

TEST(AdviceMutationTest, DecodersRefuseOrRoundTripEveryMutant) {
  uint64_t seed = 29;
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE(pinned.file);
    const Counts got = pinned.advice ? Drive<AdviceSegmentPayload>(pinned.file, seed)
                                     : Drive<std::vector<TraceEvent>>(pinned.file, seed);
    seed += 2;
    std::printf("%s: %zu mutations, accepted %zu file / %zu stage-off / %zu all-stage\n",
                pinned.file, got.mutations, got.file_accepted, got.stage_off_accepted,
                got.all_stage_accepted);
    EXPECT_EQ(got.mutations, pinned.counts.mutations);
    EXPECT_EQ(got.file_accepted, pinned.counts.file_accepted);
    EXPECT_EQ(got.stage_off_accepted, pinned.counts.stage_off_accepted);
    EXPECT_EQ(got.all_stage_accepted, pinned.counts.all_stage_accepted);
  }
}

}  // namespace
}  // namespace karousos
