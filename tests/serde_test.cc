#include "src/common/serde.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/server/advice.h"
#include "src/server/rollover.h"
#include "src/trace/trace.h"

namespace karousos {
namespace {

// `depth` one-element lists around a null: the smallest encoding that nests
// `depth` levels deep (2 bytes a level).
std::vector<uint8_t> NestedLists(size_t depth) {
  ByteWriter w;
  for (size_t i = 0; i < depth; ++i) {
    w.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
    w.WriteVarint(1);
  }
  w.WriteByte(static_cast<uint8_t>(Value::Kind::kNull));
  return w.Take();
}

TEST(SerdeTest, VarintRoundTrip) {
  ByteWriter w;
  const uint64_t samples[] = {0, 1, 127, 128, 300, 1u << 20, ~uint64_t{0}};
  for (uint64_t v : samples) {
    w.WriteVarint(v);
  }
  ByteReader r(w.bytes());
  for (uint64_t v : samples) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ReserveGrowsCapacityWithoutChangingContents) {
  ByteWriter w;
  w.WriteVarint(300);
  const std::vector<uint8_t> before = w.bytes();
  w.Reserve(4096);
  EXPECT_EQ(w.bytes(), before);
  EXPECT_GE(w.capacity(), before.size() + 4096);

  // Writes within the reserved headroom must not reallocate.
  const uint8_t* data = w.bytes().data();
  for (int i = 0; i < 100; ++i) {
    w.WriteVarint(static_cast<uint64_t>(i) * 1234567);
  }
  EXPECT_EQ(w.bytes().data(), data);

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadVarint(), 300u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*r.ReadVarint(), static_cast<uint64_t>(i) * 1234567);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ClearEmptiesButKeepsCapacityForReuse) {
  ByteWriter w;
  for (int i = 0; i < 256; ++i) {
    w.WriteFixed32(static_cast<uint32_t>(i));
  }
  const size_t cap = w.capacity();
  ASSERT_GT(cap, 0u);
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
  // Clear is the scratch-buffer reuse primitive: capacity must survive so a
  // per-frame encoder doesn't re-grow from zero each frame.
  EXPECT_EQ(w.capacity(), cap);

  w.WriteString("after clear");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "after clear");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncatedVarintFails) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // Continuation bits, no terminator.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadVarint().has_value());
}

TEST(SerdeTest, StringRoundTripAndBounds) {
  ByteWriter w;
  w.WriteString("hello");
  w.WriteString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadString(), "");
  // A length prefix larger than the remaining buffer must fail cleanly.
  ByteWriter bad;
  bad.WriteVarint(1000);
  bad.WriteByte('x');
  ByteReader r2(bad.bytes());
  EXPECT_FALSE(r2.ReadString().has_value());
}

TEST(SerdeTest, StringViewRoundTripMatchesString) {
  ByteWriter w;
  w.WriteString("zero-copy");
  w.WriteString("");
  ByteReader r(w.bytes());
  auto v1 = r.ReadStringView();
  auto v2 = r.ReadStringView();
  ASSERT_TRUE(v1.has_value());
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v1, "zero-copy");
  EXPECT_EQ(*v2, "");
  EXPECT_TRUE(r.AtEnd());
}

// Regression: the zero-copy reader must reject truncated buffers exactly
// where ReadString does — same inputs, same nullopt, same final position.
TEST(SerdeTest, StringViewRejectsTruncationLikeReadString) {
  const std::vector<std::vector<uint8_t>> malformed = {
      {},                    // No length prefix at all.
      {0x80, 0x80},          // Unterminated varint length.
      {0x05, 'a', 'b'},      // Length 5, only 2 payload bytes.
      {0xe8, 0x07, 'x'},     // Length 1000, 1 payload byte.
  };
  for (const auto& bytes : malformed) {
    ByteReader as_string(bytes);
    ByteReader as_view(bytes);
    auto s = as_string.ReadString();
    auto v = as_view.ReadStringView();
    EXPECT_FALSE(s.has_value());
    EXPECT_FALSE(v.has_value());
    EXPECT_EQ(as_string.remaining(), as_view.remaining());
  }
  // And a well-formed prefix must decode identically through both paths.
  ByteWriter w;
  w.WriteString("same bytes");
  ByteReader as_string(w.bytes());
  ByteReader as_view(w.bytes());
  EXPECT_EQ(*as_string.ReadString(), std::string(*as_view.ReadStringView()));
}

TEST(SerdeTest, ValueRoundTripAllKinds) {
  Value original = MakeMap({
      {"null", Value()},
      {"bool", Value(true)},
      {"neg", Value(-123456789)},
      {"dbl", Value(2.25)},
      {"str", Value("text")},
      {"list", MakeList({1, "two", MakeMap({{"x", 3}})})},
  });
  ByteWriter w;
  w.WriteValue(original);
  ByteReader r(w.bytes());
  auto decoded = r.ReadValue();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, MalformedValueKindFails) {
  std::vector<uint8_t> bytes = {0x09};  // Kind byte out of range.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadValue().has_value());
}

TEST(SerdeTest, ValueNestingIsCappedAtMaxDepth) {
  // 50,000 levels is a 100,001-byte payload; uncapped, the recursive decoder
  // overflows the stack on it.
  for (size_t depth : {kMaxValueDepth, kMaxValueDepth + 1, size_t{50000}}) {
    std::vector<uint8_t> bytes = NestedLists(depth);
    ByteReader r(bytes);
    auto decoded = r.ReadValue();
    EXPECT_EQ(decoded.has_value(), depth <= kMaxValueDepth) << "depth " << depth;
    if (decoded) {
      EXPECT_TRUE(r.AtEnd());
    }
  }
  // Maps count toward the same cap: a one-key map around cap lists.
  ByteWriter w;
  w.WriteByte(static_cast<uint8_t>(Value::Kind::kMap));
  w.WriteVarint(1);
  w.WriteString("k");
  std::vector<uint8_t> bytes = w.Take();
  std::vector<uint8_t> inner = NestedLists(kMaxValueDepth);
  bytes.insert(bytes.end(), inner.begin(), inner.end());
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadValue().has_value());
}

TEST(SerdeTest, AdviceWithTooDeepValueIsMalformed) {
  // One var-log write whose value is swapped, in the encoded advice, for a
  // nested payload.
  const Value sentinel(int64_t{0x123456789A});
  Advice advice;
  advice.var_logs[7][OpRef{1, 2, 3}] =
      VarLogEntry{VarLogEntry::Kind::kWrite, sentinel, OpRef{}};
  ByteWriter encoded;
  advice.Serialize(&encoded);
  ByteWriter needle;
  needle.WriteValue(sentinel);
  const std::vector<uint8_t>& bytes = encoded.bytes();
  auto at = std::search(bytes.begin(), bytes.end(), needle.bytes().begin(), needle.bytes().end());
  ASSERT_NE(at, bytes.end());
  for (size_t depth : {kMaxValueDepth, size_t{50000}}) {
    std::vector<uint8_t> spliced(bytes.begin(), at);
    std::vector<uint8_t> nested = NestedLists(depth);
    spliced.insert(spliced.end(), nested.begin(), nested.end());
    spliced.insert(spliced.end(), at + static_cast<ptrdiff_t>(needle.size()), bytes.end());
    ByteReader r(spliced);
    EXPECT_EQ(Advice::Deserialize(&r).has_value(), depth <= kMaxValueDepth)
        << "depth " << depth;
  }
}

// `prefix`, then a count header claiming `count` entries, then `tail` zero
// bytes: with count == tail the header claims exactly remaining() entries.
std::vector<uint8_t> CountHeader(ByteWriter prefix, uint64_t count, size_t tail) {
  prefix.WriteVarint(count);
  std::vector<uint8_t> bytes = prefix.Take();
  bytes.resize(bytes.size() + tail, 0);
  return bytes;
}

// Count-prefixed decoders bound a count by the element's minimum encoded
// size before they reserve, so one input byte cannot reserve a whole
// element's worth of memory. A count of remaining() entries is rejected
// wherever an entry needs more than one byte, and an absurd count is
// rejected instead of throwing from reserve.
TEST(SerdeTest, CountHeadersAreBoundedByTheMinimumEntrySize) {
  constexpr size_t kTail = 64;
  const uint64_t kHuge = uint64_t{1} << 62;
  auto value = [](const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    return r.ReadValue();
  };
  ByteWriter list;
  list.WriteByte(static_cast<uint8_t>(Value::Kind::kList));
  // A list item can be a one-byte null, so remaining() items is the exact bound.
  auto nulls = value(CountHeader(list, kTail, kTail));
  ASSERT_TRUE(nulls.has_value());
  EXPECT_EQ(nulls->AsList().size(), kTail);
  EXPECT_FALSE(value(CountHeader(list, kTail + 1, kTail)).has_value());
  ByteWriter map;
  map.WriteByte(static_cast<uint8_t>(Value::Kind::kMap));
  EXPECT_FALSE(value(CountHeader(map, kTail, kTail)).has_value());

  for (uint64_t count : {uint64_t{kTail}, kHuge}) {
    std::vector<uint8_t> trace_bytes = CountHeader(ByteWriter(), count, kTail);
    ByteReader trace_reader(trace_bytes);
    EXPECT_FALSE(Trace::Deserialize(&trace_reader).has_value()) << count;

    ByteWriter var_imports;
    var_imports.WriteVarint(0);  // No tx-op imports.
    for (const std::vector<uint8_t>& bytes :
         {CountHeader(ByteWriter(), count, kTail), CountHeader(var_imports, count, kTail)}) {
      ByteReader r(bytes);
      EXPECT_FALSE(ContinuityImports::Deserialize(&r).has_value()) << count;
    }
  }

  // Advice: the handler-log, var-log, tx-log and write-order counts.
  ByteWriter handler_log;
  handler_log.WriteVarint(0);  // Tags.
  handler_log.WriteVarint(1);  // One handler log...
  handler_log.WriteVarint(1);  // ... for rid 1.
  ByteWriter var_log;
  var_log.WriteVarint(0);
  var_log.WriteVarint(0);
  var_log.WriteVarint(1);  // One var log...
  var_log.WriteFixed64(9);  // ... for vid 9.
  ByteWriter tx_log;
  tx_log.WriteVarint(0);
  tx_log.WriteVarint(0);
  tx_log.WriteVarint(0);
  tx_log.WriteVarint(1);    // One transaction log...
  tx_log.WriteVarint(1);    // ... for rid 1,
  tx_log.WriteFixed64(5);   // tid 5.
  ByteWriter write_order;
  for (int i = 0; i < 4; ++i) {
    write_order.WriteVarint(0);
  }
  for (const ByteWriter& prefix : {handler_log, var_log, tx_log, write_order}) {
    std::vector<uint8_t> bytes = CountHeader(prefix, kTail, kTail);
    ByteReader r(bytes);
    EXPECT_FALSE(Advice::Deserialize(&r).has_value());
  }
}

TEST(SerdeTest, RandomValueFuzzRoundTrip) {
  // Property: encode(decode(x)) == x for randomly generated values.
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    std::function<Value(int)> gen = [&](int depth) -> Value {
      switch (rng.Below(depth > 2 ? 5 : 7)) {
        case 0:
          return Value();
        case 1:
          return Value(rng.Below(2) == 1);
        case 2:
          return Value(static_cast<int64_t>(rng.Next()));
        case 3:
          return Value(static_cast<double>(rng.NextDouble()));
        case 4:
          return Value("s" + std::to_string(rng.Below(1000)));
        case 5: {
          ValueList list;
          for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
            list.push_back(gen(depth + 1));
          }
          return Value(std::move(list));
        }
        default: {
          ValueMap map;
          for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
            map.emplace("k" + std::to_string(i), gen(depth + 1));
          }
          return Value(std::move(map));
        }
      }
    };
    Value original = gen(0);
    ByteWriter w;
    w.WriteValue(original);
    ByteReader r(w.bytes());
    auto decoded = r.ReadValue();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
  }
}

}  // namespace
}  // namespace karousos
