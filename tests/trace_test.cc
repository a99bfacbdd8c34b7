#include "src/trace/trace.h"

#include <gtest/gtest.h>

namespace karousos {
namespace {

Trace MakeBalanced() {
  Trace trace;
  trace.events = {
      {TraceEvent::Kind::kRequest, 1, Value("in1")},
      {TraceEvent::Kind::kRequest, 2, Value("in2")},
      {TraceEvent::Kind::kResponse, 2, Value("out2")},
      {TraceEvent::Kind::kResponse, 1, Value("out1")},
  };
  return trace;
}

TEST(TraceTest, Lookups) {
  Trace trace = MakeBalanced();
  EXPECT_EQ(trace.request_count(), 2u);
  EXPECT_EQ(trace.RequestIds(), (std::vector<RequestId>{1, 2}));
  EXPECT_EQ(*trace.RequestInput(2), Value("in2"));
  EXPECT_EQ(*trace.Response(1), Value("out1"));
  EXPECT_FALSE(trace.Response(3).has_value());
}

TEST(TraceTest, SerializationRoundTrip) {
  Trace trace = MakeBalanced();
  ByteWriter w;
  trace.Serialize(&w);
  ByteReader r(w.bytes());
  auto decoded = Trace::Deserialize(&r);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(decoded->events[i].kind, trace.events[i].kind);
    EXPECT_EQ(decoded->events[i].rid, trace.events[i].rid);
    EXPECT_EQ(decoded->events[i].payload, trace.events[i].payload);
  }
}

TEST(TraceTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage = {0x05, 0x99, 0x01};
  ByteReader r(garbage);
  EXPECT_FALSE(Trace::Deserialize(&r).has_value());
}

TEST(TraceIndexTest, MatchesTheLinearScanMethods) {
  Trace trace = MakeBalanced();
  TraceIndex index(trace);
  for (RequestId rid = 0; rid <= 4; ++rid) {
    EXPECT_EQ(index.RequestInput(rid), trace.RequestInput(rid)) << "rid " << rid;
    EXPECT_EQ(index.Response(rid), trace.Response(rid)) << "rid " << rid;
  }
}

TEST(TraceIndexTest, DuplicatesYieldNullopt) {
  Trace trace;
  trace.events.push_back({TraceEvent::Kind::kRequest, 1, Value("a")});
  trace.events.push_back({TraceEvent::Kind::kRequest, 1, Value("b")});
  trace.events.push_back({TraceEvent::Kind::kResponse, 1, Value("x")});
  trace.events.push_back({TraceEvent::Kind::kResponse, 1, Value("y")});
  TraceIndex index(trace);
  // Same contract as the scan methods: a duplicated event makes the lookup
  // report absence rather than picking a winner.
  EXPECT_FALSE(index.RequestInput(1).has_value());
  EXPECT_FALSE(index.Response(1).has_value());
  EXPECT_EQ(index.RequestInput(1), trace.RequestInput(1));
  EXPECT_EQ(index.Response(1), trace.Response(1));
}

}  // namespace
}  // namespace karousos
