#include "src/common/json.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/common/serde.h"

namespace karousos {
namespace {

TEST(JsonTest, Scalars) {
  EXPECT_EQ(*ParseJson("null"), Value());
  EXPECT_EQ(*ParseJson("true"), Value(true));
  EXPECT_EQ(*ParseJson("false"), Value(false));
  EXPECT_EQ(*ParseJson("42"), Value(42));
  EXPECT_EQ(*ParseJson("-7"), Value(-7));
  EXPECT_EQ(*ParseJson("2.5"), Value(2.5));
  EXPECT_EQ(*ParseJson("1e3"), Value(1000.0));
  EXPECT_EQ(*ParseJson("\"hi\""), Value("hi"));
}

TEST(JsonTest, Containers) {
  EXPECT_EQ(*ParseJson("[]"), Value(ValueList{}));
  EXPECT_EQ(*ParseJson("{}"), Value(ValueMap{}));
  EXPECT_EQ(*ParseJson("[1, \"a\", null]"), MakeList({1, "a", Value()}));
  EXPECT_EQ(*ParseJson(R"({"b": 2, "a": [true]})"),
            MakeMap({{"a", MakeList({true})}, {"b", 2}}));
  EXPECT_EQ(*ParseJson(R"({"nested": {"deep": [{"x": 1}]}})"),
            MakeMap({{"nested", MakeMap({{"deep", MakeList({MakeMap({{"x", 1}})})}})}}));
}

TEST(JsonTest, RepeatedKeyKeepsItsLastValue) {
  EXPECT_EQ(*ParseJson(R"({"b": 1, "a": 2, "b": 3, "c": 4, "b": 5})"),
            MakeMap({{"a", 2}, {"b", 5}, {"c", 4}}));
}

TEST(JsonTest, Whitespace) {
  EXPECT_EQ(*ParseJson("  [ 1 ,\n\t2 ]  "), MakeList({1, 2}));
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(*ParseJson(R"("a\"b\\c\/d\n\t")"), Value("a\"b\\c/d\n\t"));
  EXPECT_EQ(*ParseJson(R"("Aé")"), Value("A\xc3\xa9"));
  // Surrogate pair: U+1F600.
  EXPECT_EQ(*ParseJson(R"("😀")"), Value("\xf0\x9f\x98\x80"));
}

TEST(JsonTest, Errors) {
  JsonParseError error;
  EXPECT_FALSE(ParseJson("", &error).has_value());
  EXPECT_FALSE(ParseJson("{", &error).has_value());
  EXPECT_FALSE(ParseJson("[1,]", &error).has_value());
  EXPECT_FALSE(ParseJson("\"unterminated", &error).has_value());
  EXPECT_FALSE(ParseJson("nul", &error).has_value());
  EXPECT_FALSE(ParseJson("1 2", &error).has_value());
  EXPECT_FALSE(ParseJson(R"({"a" 1})", &error).has_value());
  EXPECT_FALSE(ParseJson(R"("\q")", &error).has_value());
  EXPECT_FALSE(ParseJson("-", &error).has_value());
  EXPECT_FALSE(error.message.empty());
}

TEST(JsonTest, NestingIsCappedAtMaxDepth) {
  // `depth` nested arrays around a null, and the same depth of objects.
  auto arrays = [](size_t depth) {
    return std::string(depth, '[') + "null" + std::string(depth, ']');
  };
  auto objects = [](size_t depth) {
    std::string text;
    for (size_t i = 0; i < depth; ++i) text += "{\"k\":";
    return text + "1" + std::string(depth, '}');
  };
  for (size_t depth : {kMaxValueDepth, kMaxValueDepth + 1, size_t{100000}}) {
    for (const std::string& text : {arrays(depth), objects(depth)}) {
      JsonParseError error;
      std::optional<Value> parsed = ParseJson(text, &error);
      EXPECT_EQ(parsed.has_value(), depth <= kMaxValueDepth) << "depth " << depth;
      if (!parsed) {
        EXPECT_NE(error.message.find("nesting"), std::string::npos) << error.message;
      }
    }
  }
}

TEST(JsonTest, IntegerOverflowFallsBackToDouble) {
  auto v = ParseJson("123456789012345678901234567890");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_double());
}

TEST(JsonTest, RoundTripsValueToString) {
  // Value::ToString emits JSON; parsing it back must reproduce the value
  // (for values without doubles, whose text form can lose precision).
  Rng rng(99);
  std::function<Value(int)> gen = [&](int depth) -> Value {
    switch (rng.Below(depth > 2 ? 4 : 6)) {
      case 0:
        return Value();
      case 1:
        return Value(rng.Below(2) == 1);
      case 2:
        return Value(static_cast<int64_t>(rng.Next() >> 1));
      case 3:
        return Value("s" + std::to_string(rng.Below(100)));
      case 4: {
        ValueList list;
        for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
          list.push_back(gen(depth + 1));
        }
        return Value(std::move(list));
      }
      default: {
        ValueMap map;
        for (uint64_t i = 0, n = rng.Below(4); i < n; ++i) {
          map.emplace("key" + std::to_string(i), gen(depth + 1));
        }
        return Value(std::move(map));
      }
    }
  };
  for (int iter = 0; iter < 100; ++iter) {
    Value original = gen(0);
    auto parsed = ParseJson(original.ToString());
    ASSERT_TRUE(parsed.has_value()) << original.ToString();
    EXPECT_EQ(*parsed, original);
  }
}

}  // namespace
}  // namespace karousos
