#include "src/common/value.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>

#include "src/workload/workload.h"

// Every allocation this test binary makes passes through here, so a test can
// count what an operation allocates.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace karousos {
namespace {

size_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(MakeList({1, 2}).is_list());
  EXPECT_TRUE(MakeMap({{"a", 1}}).is_map());
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(false).Truthy());
  EXPECT_FALSE(Value(0).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_FALSE(Value(ValueList{}).Truthy());
  EXPECT_FALSE(Value(ValueMap{}).Truthy());
  EXPECT_TRUE(Value(true).Truthy());
  EXPECT_TRUE(Value(-1).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
  EXPECT_TRUE(MakeList({Value()}).Truthy());
}

TEST(ValueTest, FieldAccess) {
  Value m = MakeMap({{"a", 1}, {"b", "two"}});
  EXPECT_EQ(m.Field("a"), Value(1));
  EXPECT_EQ(m.Field("b"), Value("two"));
  EXPECT_TRUE(m.Field("missing").is_null());
  EXPECT_TRUE(Value(3).Field("a").is_null());
  EXPECT_TRUE(m.HasField("a"));
  EXPECT_FALSE(m.HasField("c"));
}

TEST(ValueTest, EqualityIsStructural) {
  EXPECT_EQ(MakeMap({{"a", MakeList({1, "x"})}}), MakeMap({{"a", MakeList({1, "x"})}}));
  EXPECT_NE(MakeMap({{"a", 1}}), MakeMap({{"a", 2}}));
  EXPECT_NE(Value(1), Value(1.0));  // Int and double are distinct kinds.
  EXPECT_NE(Value(0), Value(false));
}

TEST(ValueTest, DigestDistinguishesStructure) {
  EXPECT_NE(Value("ab").DigestValue(), MakeList({"a", "b"}).DigestValue());
  EXPECT_NE(MakeList({1, 2}).DigestValue(), MakeList({2, 1}).DigestValue());
  EXPECT_EQ(MakeMap({{"a", 1}, {"b", 2}}).DigestValue(),
            MakeMap({{"b", 2}, {"a", 1}}).DigestValue());  // Map order canonical.
  EXPECT_NE(Value().DigestValue(), Value(0).DigestValue());
}

TEST(ValueTest, ToStringRendersJson) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(MakeList({1, "a"}).ToString(), "[1,\"a\"]");
  EXPECT_EQ(MakeMap({{"k", MakeList({})}}).ToString(), "{\"k\":[]}");
  EXPECT_EQ(Value("quote\"back\\slash").ToString(), "\"quote\\\"back\\\\slash\"");
}

TEST(ValueTest, OrderingIsTotalAndConsistent) {
  std::vector<Value> values = {Value(), Value(false), Value(true), Value(-5),
                               Value(3), Value("a"),  Value("b"),  MakeList({1})};
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_FALSE(values[i] < values[i]);
    for (size_t j = i + 1; j < values.size(); ++j) {
      EXPECT_TRUE(values[i] < values[j]);
      EXPECT_FALSE(values[j] < values[i]);
    }
  }
}

TEST(ValueTest, ShortStringsAreInlineAndLongOnesShared) {
  const std::string fifteen(15, 'x');
  const std::string sixteen(16, 'y');
  size_t before = Allocations();
  Value inline_str(fifteen);
  Value copy_inline = inline_str;
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(copy_inline.AsString(), fifteen);
  EXPECT_NE(copy_inline.AsString().data(), inline_str.AsString().data());

  Value node_str(sixteen);
  before = Allocations();
  Value copy_node = node_str;
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(copy_node.AsString().data(), node_str.AsString().data());
  EXPECT_EQ(copy_node, node_str);
  EXPECT_EQ(sizeof(Value), 16u);
}

TEST(ValueTest, CopiesShareListsAndMapsWithoutAllocating) {
  Value list = MakeList({1, "two", MakeList({3})});
  Value map = MakeMap({{"a", list}, {"b", std::string(40, 'b')}});
  const size_t before = Allocations();
  Value list_copy = list;
  Value map_copy(map);
  Value assigned;
  assigned = map_copy;
  Value moved = std::move(assigned);
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(&list_copy.AsList(), &list.AsList());
  EXPECT_EQ(&map_copy.AsMap(), &map.AsMap());
  EXPECT_EQ(&moved.AsMap(), &map.AsMap());
  EXPECT_EQ(&map.Field("a").AsList(), &list.AsList());
  EXPECT_TRUE(assigned.is_null());
}

TEST(ValueTest, AccessorKindMismatchThrows) {
  EXPECT_THROW(Value(1).AsString(), std::logic_error);
  EXPECT_THROW(Value("s").AsMap(), std::logic_error);
  EXPECT_THROW(MakeList({}).AsInt(), std::logic_error);
}

TEST(ValueTest, EqualityStaysStructuralForSharedNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Value list = MakeList({nan});
  Value copy = list;  // Same node, yet NaN != NaN as before.
  EXPECT_NE(copy, list);
  EXPECT_NE(Value(nan), Value(nan));
  EXPECT_FALSE(copy < list);
  EXPECT_EQ(copy.DigestValue(), list.DigestValue());
}

TEST(ValueTest, ValueMapKeepsKeysSortedLikeStdMap) {
  ValueMap m;
  EXPECT_TRUE(m.emplace("b", 2).second);
  EXPECT_TRUE(m.emplace("a", 1).second);
  EXPECT_FALSE(m.emplace("a", 9).second);  // emplace keeps the existing value.
  m["c"] = 3;
  m["b"] = 20;
  EXPECT_EQ(m.count("a"), 1u);
  EXPECT_EQ(m.count("z"), 0u);
  EXPECT_EQ(m.erase("z"), 0u);
  EXPECT_EQ(m.erase("c"), 1u);
  std::string keys;
  for (const auto& [key, item] : m) {
    keys += key + "=" + item.ToString() + ";";
  }
  EXPECT_EQ(keys, "a=1;b=20;");
  EXPECT_FALSE(m.AppendInOrder("b", 0));  // Duplicate.
  EXPECT_FALSE(m.AppendInOrder("a0", 0));  // Sorts before "b".
  EXPECT_TRUE(m.AppendInOrder("bb", 0));
  EXPECT_EQ(Value(m).ToString(), "{\"a\":1,\"b\":20,\"bb\":0}");
}

// Builds `depth` nested one-element lists through the public API.
Value DeepList(size_t depth) {
  Value v;
  for (size_t i = 0; i < depth; ++i) {
    ValueList l;
    l.push_back(std::move(v));
    v = Value(std::move(l));
  }
  return v;
}

TEST(ValueTest, MillionDeepListIsFreedWithoutRecursion) {
  Value deep = DeepList(1000000);
  Value shared = deep.AsList()[0];  // Keeps the inner 999,999 levels alive.
  deep = Value();
  EXPECT_TRUE(shared.is_list());
  shared = Value();  // Frees the rest; a recursive free overflows the stack.
  EXPECT_TRUE(shared.is_null());
}

TEST(ValueTest, ThreadsShareOneMap) {
  ValueMap m;
  for (int i = 0; i < 8; ++i) {
    m.emplace("day" + std::to_string(i), std::string(64, static_cast<char>('a' + i)));
  }
  const Value shared(std::move(m));
  const uint64_t digest = shared.DigestValue();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &mismatches, digest] {
      for (int i = 0; i < 2000; ++i) {
        Value copy = shared;
        ValueList lanes(4, copy);
        if (lanes[i % 4].DigestValue() != digest || lanes[0] != shared) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.DigestValue(), digest);
}

// Allocations GenerateWorkload made at the commit before Value became
// shared, for the same configurations, counted by the operator new above.
TEST(ValueTest, WorkloadGenerationAllocatesNoMoreThanBefore) {
  struct Case {
    const char* app;
    WorkloadKind kind;
    size_t requests;
    size_t max_allocations;
  };
  for (const Case& c : {Case{"stacks", WorkloadKind::kMixed, 1500, 6263},
                        Case{"motd", WorkloadKind::kReadHeavy, 20000, 45998}}) {
    WorkloadConfig config;
    config.app = c.app;
    config.kind = c.kind;
    config.requests = c.requests;
    config.seed = 7;
    const size_t before = Allocations();
    std::vector<Value> inputs = GenerateWorkload(config);
    const size_t allocations = Allocations() - before;
    EXPECT_EQ(inputs.size(), c.requests);
    EXPECT_LE(allocations, c.max_allocations) << c.app;
    std::printf("%s: %zu allocations, %.2f per request\n", c.app, allocations,
                static_cast<double>(allocations) / static_cast<double>(c.requests));
  }
}

}  // namespace
}  // namespace karousos
