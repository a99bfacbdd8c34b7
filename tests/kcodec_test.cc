// Storage-class codec primitives (src/common/kcodec.h): zigzag/delta lanes,
// per-segment dictionaries, and the LZ4-style block codec. Every malformed
// input must decode to nullopt — never crash, never over-allocate — because a
// compressed frame is untrusted server output.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/common/kcodec.h"
#include "src/common/serde.h"

namespace karousos {
namespace {

TEST(ZigzagTest, RoundTripsEdgeValues) {
  const int64_t cases[] = {0, 1, -1, 2, -2, 63, -64, (int64_t)1 << 40, -((int64_t)1 << 40),
                           INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the property the lanes rely on).
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(DeltaLaneTest, MonotoneLaneEncodesOneByteSteps) {
  ByteWriter out;
  uint64_t prev = 0;
  for (uint64_t v = 100; v < 164; ++v) {
    WriteDelta(&out, v, &prev);
  }
  // First value costs two bytes (zigzag(100) = 200); every step after is one.
  EXPECT_EQ(out.size(), 65u);

  ByteReader in(out.bytes());
  prev = 0;
  for (uint64_t v = 100; v < 164; ++v) {
    auto got = ReadDelta(&in, &prev);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST(DeltaLaneTest, RegressionsAndWraparoundRoundTrip) {
  const uint64_t values[] = {5, 2, 900, 1, 0, UINT64_MAX, 3, UINT64_MAX - 1};
  ByteWriter out;
  uint64_t prev = 0;
  for (uint64_t v : values) {
    WriteDelta(&out, v, &prev);
  }
  ByteReader in(out.bytes());
  prev = 0;
  for (uint64_t v : values) {
    auto got = ReadDelta(&in, &prev);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
}

TEST(DictTest, U64DictInternsInFirstUseOrder) {
  U64DictBuilder dict;
  EXPECT_EQ(dict.Ref(0xdeadbeef), 0u);
  EXPECT_EQ(dict.Ref(42), 1u);
  EXPECT_EQ(dict.Ref(0xdeadbeef), 0u);
  EXPECT_EQ(dict.Ref(7), 2u);
  EXPECT_EQ(dict.size(), 3u);

  ByteWriter out;
  dict.Serialize(&out);
  ByteReader in(out.bytes());
  auto table = ReadU64Dict(&in);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(*table, (std::vector<uint64_t>{0xdeadbeef, 42, 7}));
  EXPECT_TRUE(in.AtEnd());
}

TEST(DictTest, StringDictInternsInFirstUseOrder) {
  StringDictBuilder dict;
  EXPECT_EQ(dict.Ref("bid"), 0u);
  EXPECT_EQ(dict.Ref("item:4"), 1u);
  EXPECT_EQ(dict.Ref("bid"), 0u);
  EXPECT_EQ(dict.size(), 2u);

  ByteWriter out;
  dict.Serialize(&out);
  ByteReader in(out.bytes());
  auto table = ReadStringDict(&in);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(*table, (std::vector<std::string_view>{"bid", "item:4"}));
}

TEST(DictTest, TruncatedAndOversizedDictsReject) {
  U64DictBuilder dict;
  dict.Ref(1);
  dict.Ref(2);
  ByteWriter out;
  dict.Serialize(&out);
  std::vector<uint8_t> bytes = out.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader in(bytes.data(), cut);
    EXPECT_FALSE(ReadU64Dict(&in).has_value()) << "cut at " << cut;
  }
  // A forged huge count must reject before sizing any allocation from it.
  ByteWriter forged;
  forged.WriteVarint(uint64_t{1} << 60);
  ByteReader in(forged.bytes());
  EXPECT_FALSE(ReadU64Dict(&in).has_value());
  ByteReader in2(forged.bytes());
  EXPECT_FALSE(ReadStringDict(&in2).has_value());
}

std::vector<uint8_t> RoundTripBlock(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> stored = BlockFrameEncode(data);
  auto back = BlockFrameDecode(stored);
  EXPECT_TRUE(back.has_value());
  return back ? *back : std::vector<uint8_t>{};
}

TEST(BlockCodecTest, RoundTripsEmptyAndTiny) {
  EXPECT_EQ(RoundTripBlock({}), std::vector<uint8_t>{});
  EXPECT_EQ(RoundTripBlock({0x42}), std::vector<uint8_t>{0x42});
  std::vector<uint8_t> tiny{1, 2, 3};
  EXPECT_EQ(RoundTripBlock(tiny), tiny);
}

TEST(BlockCodecTest, RepetitiveInputShrinksAndRoundTrips) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 400; ++i) {
    const char* s = "put:auction/item-17 ";
    data.insert(data.end(), s, s + 20);
  }
  std::vector<uint8_t> stored = BlockFrameEncode(data);
  EXPECT_LT(stored.size(), data.size() / 4) << "repetitive payload should compress hard";
  auto back = BlockFrameDecode(stored);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(BlockCodecTest, OverlappingMatchesRoundTrip) {
  // Period-3 run: matches with offset 3 and length >> 3 force the
  // overlap-safe byte-by-byte copy path.
  std::vector<uint8_t> data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<uint8_t>("abc"[i % 3]));
  }
  EXPECT_EQ(RoundTripBlock(data), data);
  // RLE extreme: a single repeated byte (offset-1 match).
  std::vector<uint8_t> ones(5000, 0xaa);
  std::vector<uint8_t> stored = BlockFrameEncode(ones);
  EXPECT_LT(stored.size(), 64u);
  EXPECT_EQ(RoundTripBlock(ones), ones);
}

TEST(BlockCodecTest, IncompressibleInputRoundTrips) {
  std::mt19937_64 rng(7);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng());
  }
  EXPECT_EQ(RoundTripBlock(data), data);
}

TEST(BlockCodecTest, StructuredAdviceLikeBytesRoundTrip) {
  // Interleave varint-ish small integers with fixed64 digests, the shape of
  // a real advice payload.
  std::mt19937_64 rng(11);
  ByteWriter w;
  for (int i = 0; i < 2000; ++i) {
    w.WriteVarint(static_cast<uint64_t>(i));
    w.WriteFixed64(rng() % 16);  // Few distinct digests: compressible.
  }
  EXPECT_EQ(RoundTripBlock(w.bytes()), w.bytes());
}

TEST(BlockCodecTest, TruncationAtEveryByteRejects) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 64; ++i) {
    data.push_back(static_cast<uint8_t>(i % 7));
  }
  std::vector<uint8_t> stored = BlockFrameEncode(data);
  for (size_t cut = 0; cut < stored.size(); ++cut) {
    auto out = BlockFrameDecode(stored.data(), cut);
    EXPECT_FALSE(out.has_value()) << "truncated stored block accepted at " << cut;
  }
}

TEST(BlockCodecTest, DeclaredSizeMismatchRejects) {
  std::vector<uint8_t> data(300, 0x55);
  std::vector<uint8_t> stored = BlockFrameEncode(data);
  // The decoded-size varint leads the stored form; 300 encodes as two bytes
  // (0xac 0x02). Nudging it up or down must reject: the decoder requires the
  // sequences to produce exactly the declared byte count.
  std::vector<uint8_t> up = stored;
  up[0] = static_cast<uint8_t>(up[0] + 1);
  EXPECT_FALSE(BlockFrameDecode(up).has_value());
  std::vector<uint8_t> down = stored;
  down[0] = static_cast<uint8_t>(down[0] - 1);
  EXPECT_FALSE(BlockFrameDecode(down).has_value());
}

TEST(BlockCodecTest, ForgedHugeDeclaredSizeRejectsBeforeAllocating) {
  ByteWriter w;
  w.WriteVarint(uint64_t{1} << 50);
  w.WriteByte(0);  // One empty final sequence.
  EXPECT_FALSE(BlockFrameDecode(w.bytes()).has_value());
}

TEST(BlockCodecTest, BadOffsetsReject) {
  // Hand-built sequence: 4 literals then a match reaching before the start.
  ByteWriter w;
  w.WriteVarint(12);      // Declared decoded size.
  w.WriteByte(0x40);      // Token: 4 literals, match_len 4.
  w.WriteByte('a');
  w.WriteByte('b');
  w.WriteByte('c');
  w.WriteByte('d');
  w.WriteByte(9);         // Offset 9 > 4 bytes produced so far.
  w.WriteByte(0);
  w.WriteByte(0x40);      // Terminator would go here; never reached.
  EXPECT_FALSE(BlockFrameDecode(w.bytes()).has_value());

  // Offset 0 is equally invalid.
  ByteWriter z;
  z.WriteVarint(12);
  z.WriteByte(0x40);
  z.WriteByte('a');
  z.WriteByte('b');
  z.WriteByte('c');
  z.WriteByte('d');
  z.WriteByte(0);
  z.WriteByte(0);
  EXPECT_FALSE(BlockFrameDecode(z.bytes()).has_value());
}

TEST(KsegCompressionTest, FlagsRoundTrip) {
  for (uint8_t flags = 0; flags <= kFrameFlagsKnownMask; ++flags) {
    KsegCompression c = KsegCompression::FromFlags(flags);
    EXPECT_EQ(c.Flags(), flags);
    EXPECT_EQ(c.any(), flags != 0);
  }
  KsegCompression all = KsegCompression::All();
  EXPECT_EQ(all.Flags(), kFrameFlagsKnownMask);
}

}  // namespace
}  // namespace karousos
