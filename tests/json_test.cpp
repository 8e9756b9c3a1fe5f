#include "common/json.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace horus {
namespace {

/// Generates a random JSON document, depth-bounded.
Json random_json(Rng& rng, int depth) {
  const int pick = static_cast<int>(rng.uniform(0, depth <= 0 ? 4 : 6));
  switch (pick) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.chance(0.5));
    case 2: return Json(rng.uniform(-1'000'000'000'000, 1'000'000'000'000));
    case 3: return Json(rng.uniform01() * 1e6 - 5e5);
    case 4: {
      std::string s;
      const auto len = rng.uniform(0, 24);
      for (std::int64_t i = 0; i < len; ++i) {
        // Mix of printable ASCII, escapes and multi-byte UTF-8.
        const auto kind = rng.uniform(0, 9);
        if (kind < 7) {
          s += static_cast<char>(rng.uniform(0x20, 0x7e));
        } else if (kind == 7) {
          s += "\"\\\n\t";
        } else {
          s += "\xC3\xA9";  // é
        }
      }
      return Json(std::move(s));
    }
    case 5: {
      Json::Array arr;
      const auto len = rng.uniform(0, 5);
      for (std::int64_t i = 0; i < len; ++i) {
        arr.push_back(random_json(rng, depth - 1));
      }
      return Json(std::move(arr));
    }
    default: {
      Json::Object obj;
      const auto len = rng.uniform(0, 5);
      for (std::int64_t i = 0; i < len; ++i) {
        obj.insert_or_assign("k" + std::to_string(rng.uniform(0, 99)),
                             random_json(rng, depth - 1));
      }
      return Json(std::move(obj));
    }
  }
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-1e3").as_double(), -1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, IntegersStayExact) {
  const auto big = Json::parse("9007199254740993");  // 2^53 + 1
  ASSERT_TRUE(big.is_int());
  EXPECT_EQ(big.as_int(), 9007199254740993LL);
}

TEST(JsonTest, IntToDoubleWidening) {
  EXPECT_DOUBLE_EQ(Json::parse("5").as_double(), 5.0);
}

TEST(JsonTest, ParsesNestedStructures) {
  const auto j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").as_object().empty());
}

TEST(JsonTest, StringEscapes) {
  const auto j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, UnicodeSurrogatePairs) {
  const auto j = Json::parse(R"("😀")");
  EXPECT_EQ(j.as_string(), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(JsonTest, RoundTripsThroughDump) {
  const char* text =
      R"({"arr":[1,2.5,"x"],"flag":true,"n":null,"nested":{"k":-3}})";
  const auto j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(JsonTest, IntegralDoublesStayDoubles) {
  for (const double d : {3.0, -0.0, 0.0, 1e15, -42.0}) {
    const Json j(d);
    const Json back = Json::parse(j.dump());
    EXPECT_TRUE(back.is_double()) << j.dump();
    EXPECT_EQ(back, j) << j.dump();
  }
  EXPECT_EQ(Json(3.0).dump(), "3.0");
  EXPECT_EQ(Json(std::int64_t{3}).dump(), "3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(JsonTest, DumpEscapesControlCharacters) {
  const Json j(std::string("a\x01" "b"));
  EXPECT_EQ(j.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("\"\\u12"), JsonError);
  EXPECT_THROW(Json::parse("01a"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(JsonTest, RejectsLoneSurrogates) {
  EXPECT_THROW(Json::parse(R"("\ud800")"), JsonError);
  EXPECT_THROW(Json::parse(R"("\udc00")"), JsonError);
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(JsonTest, ObjectAccessors) {
  Json j = Json::object();
  j["x"] = 1;
  j["y"] = "z";
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("missing"));
  EXPECT_EQ(j.get_or("y", std::string("d")), "z");
  EXPECT_EQ(j.get_or("missing", std::string("d")), "d");
  EXPECT_EQ(j.get_or("x", std::int64_t{9}), 1);
  EXPECT_EQ(j.get_or("missing", std::int64_t{9}), 9);
  EXPECT_THROW(j.at("missing"), JsonError);
  EXPECT_THROW(j.at("x").as_string(), JsonError);
}

TEST(JsonTest, PushBackBuildsArrays) {
  Json j;
  j.push_back(1);
  j.push_back("two");
  ASSERT_TRUE(j.is_array());
  EXPECT_EQ(j.as_array().size(), 2u);
}

TEST(JsonTest, DeterministicKeyOrder) {
  const auto j = Json::parse(R"({"b":1,"a":2})");
  EXPECT_EQ(j.dump(), R"({"a":2,"b":1})");
}

TEST(JsonTest, PrettyPrintParsesBack) {
  const auto j = Json::parse(R"({"a":[1,{"b":2}],"c":"d"})");
  EXPECT_EQ(Json::parse(j.dump_pretty()), j);
}

class JsonRoundTripPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTripPropertyTest, RandomDocumentsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const Json doc = random_json(rng, 4);
    const std::string compact = doc.dump();
    const std::string pretty = doc.dump_pretty();
    Json from_compact = Json::parse(compact);
    Json from_pretty = Json::parse(pretty);
    // Doubles may lose identity only if non-finite (never generated), so
    // full equality must hold both ways.
    ASSERT_EQ(from_compact, doc) << compact;
    ASSERT_EQ(from_pretty, doc) << pretty;
    // Serialization is canonical: dump(parse(dump(x))) == dump(x).
    ASSERT_EQ(from_compact.dump(), compact);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace horus
