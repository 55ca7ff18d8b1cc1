// Direct tests for obs/json — previously covered only transitively
// through the exporters. The writer helpers must produce exactly what the
// parser reads back (the JSONL metrics, audit and profile exports rely on
// that), and the parser must reject every malformed document rather than
// guess.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/json.hpp"

namespace amoeba::obs {
namespace {

TEST(JsonEscape, EscapesControlQuotesAndBackslash) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  // Non-ASCII bytes pass through untouched (UTF-8 is legal in JSON).
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(JsonEscape, RoundTripsThroughParser) {
  const std::string nasty = "he said \"1\\2\"\n\tdone";
  const auto doc = parse_json("\"" + json_escape(nasty) + "\"");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_string());
  EXPECT_EQ(doc->string, nasty);
}

TEST(JsonNumber, IntegersPrintWithoutExponent) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(9007199254740992.0), "9007199254740992");  // 2^53
}

TEST(JsonNumber, RoundTripsBitExactly) {
  for (double x : {0.1, 1.0 / 3.0, 2.5e-12, 6.02214076e23, -123.456,
                   1.7976931348623157e308}) {
    const std::string s = json_number(x);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), x) << s;
    const auto doc = parse_json(s);
    ASSERT_TRUE(doc.has_value()) << s;
    ASSERT_TRUE(doc->is_number()) << s;
    EXPECT_EQ(doc->number, x) << s;
  }
}

TEST(ParseJson, HandlesTheFullGrammar) {
  const auto doc = parse_json(
      R"({"s": "x", "n": -1.5e2, "b": true, "z": null,)"
      R"( "a": [1, {"k": false}, []]})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->at("s").string, "x");
  EXPECT_EQ(doc->at("n").number, -150.0);
  EXPECT_TRUE(doc->at("b").boolean);
  EXPECT_TRUE(doc->at("z").is_null());
  const JsonValue& a = doc->at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_EQ(a.array[0].number, 1.0);
  EXPECT_FALSE(a.array[1].at("k").boolean);
  EXPECT_TRUE(a.array[2].array.empty());
}

TEST(ParseJson, PreservesObjectMemberOrder) {
  const auto doc = parse_json(R"({"zz": 1, "aa": 2, "mm": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object.size(), 3u);
  EXPECT_EQ(doc->object[0].first, "zz");
  EXPECT_EQ(doc->object[1].first, "aa");
  EXPECT_EQ(doc->object[2].first, "mm");
}

TEST(ParseJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("[1,]").has_value());
  EXPECT_FALSE(parse_json("{\"a\" 1}").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("tru").has_value());
  EXPECT_FALSE(parse_json("1 2").has_value());  // trailing input
  EXPECT_FALSE(parse_json("{\"a\": 1} x").has_value());
}

TEST(ParseJson, FindDistinguishesAbsentFromNull) {
  const auto doc = parse_json(R"({"present": null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("present"), nullptr);
  EXPECT_TRUE(doc->find("present")->is_null());
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(ParseJson, ReadsClusterSummaryRows) {
  // A per-service summary row written with the writer helpers survives a
  // full write -> parse cycle: strings unescaped, numbers bit-exact.
  const std::string text =
      R"({"trace_hash": "0xfeed", "services": [{"name": ")" +
      json_escape("cloud_stor#2") +
      R"(", "qos_target_s": )" + json_number(0.12) +
      R"(, "violation_fraction": )" + json_number(0.5) +
      R"(, "n_max_granted": )" + json_number(2.0) + "}]}";

  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("trace_hash").string, "0xfeed");
  const JsonValue& row = doc->at("services").array.at(0);
  EXPECT_EQ(row.at("name").string, "cloud_stor#2");
  EXPECT_EQ(row.at("qos_target_s").number, 0.12);
  EXPECT_EQ(row.at("violation_fraction").number, 0.5);
  EXPECT_EQ(row.at("n_max_granted").number, 2.0);
}

}  // namespace
}  // namespace amoeba::obs
