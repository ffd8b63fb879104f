// The shared JSON stack: the escaper every emitter calls, the parser's
// nesting bound and number grammar, and the shape checker's dotted-path
// messages.

#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

namespace gamedb::json {
namespace {

std::string Quoted(std::string_view s) {
  std::string out;
  AppendQuoted(&out, s);
  return out;
}

TEST(JsonEscapeTest, ControlBytes) {
  for (int b = 0; b < 0x20; ++b) {
    const std::string in(1, static_cast<char>(b));
    std::string want;
    switch (b) {
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(b));
        want = buf;
      }
    }
    EXPECT_EQ(Quoted(in), "\"" + want + "\"") << "byte " << b;
  }
  EXPECT_EQ(Quoted("\x01"), "\"\\u0001\"");
  EXPECT_EQ(Quoted("\x1f"), "\"\\u001f\"");
}

TEST(JsonEscapeTest, QuoteAndBackslash) {
  EXPECT_EQ(Quoted("\""), "\"\\\"\"");
  EXPECT_EQ(Quoted("\\"), "\"\\\\\"");
  EXPECT_EQ(Quoted("a \"b\" \\ c"), "\"a \\\"b\\\" \\\\ c\"");
  EXPECT_EQ(Quoted(""), "\"\"");
}

TEST(JsonEscapeTest, PrintableAndHighBytesPassThrough) {
  for (int b = 0x20; b < 0x100; ++b) {
    if (b == '"' || b == '\\') continue;
    const std::string in(1, static_cast<char>(b));
    EXPECT_EQ(Quoted(in), "\"" + in + "\"") << "byte " << b;
  }
  EXPECT_EQ(Quoted("\xc3\xa9t\xc3\xa9"), "\"\xc3\xa9t\xc3\xa9\"");
}

TEST(JsonEscapeTest, AppendsAfterExistingText) {
  std::string out = "{\"k\": ";
  AppendQuoted(&out, "v\n");
  EXPECT_EQ(out, "{\"k\": \"v\\n\"");
}

TEST(JsonEscapeTest, EveryByteRoundTripsThroughTheParser) {
  std::string all;
  for (int b = 0; b < 0x100; ++b) all.push_back(static_cast<char>(b));
  Result<JsonValue> v = ParseJson(Quoted(all));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->Is(JsonValue::Kind::kString));
  EXPECT_EQ(v->str, all);
}

TEST(JsonFixed3Test, ThreeDecimalsAndNonFiniteAsZero) {
  EXPECT_EQ(Fixed3(1.5), "1.500");
  EXPECT_EQ(Fixed3(20.56666), "20.567");
  EXPECT_EQ(Fixed3(-0.0004), "-0.000");
  EXPECT_EQ(Fixed3(1e20), "100000000000000000000.000");
  EXPECT_EQ(Fixed3(std::numeric_limits<double>::infinity()), "0.000");
  EXPECT_EQ(Fixed3(std::numeric_limits<double>::quiet_NaN()), "0.000");
}

// --- Parser ----------------------------------------------------------------

std::string NestedArrays(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonParseTest, NestingBoundIs64) {
  EXPECT_TRUE(ParseJson(NestedArrays(64)).ok());
  Result<JsonValue> deep = ParseJson(NestedArrays(65));
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsParseError());
  EXPECT_NE(deep.status().message().find("nesting too deep"),
            std::string::npos)
      << deep.status().ToString();

  // Objects count the same as arrays; scalars add no level.
  std::string objects;
  for (int i = 0; i < 63; ++i) objects += "{\"k\": ";
  EXPECT_TRUE(ParseJson(objects + "[1]" + std::string(63, '}')).ok());
  EXPECT_FALSE(ParseJson(objects + "[[1]]" + std::string(63, '}')).ok());

  EXPECT_FALSE(ParseJson(std::string(200000, '[')).ok());
}

TEST(JsonParseTest, NumbersFollowTheRfcGrammar) {
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},       {"-0", 0.0},        {"7", 7.0},
      {"-12", -12.0},   {"1.5", 1.5},       {"0.25", 0.25},
      {"1e3", 1000.0},  {"1E+3", 1000.0},   {"-2.5e-1", -0.25},
      {"1e-999", 0.0},  {"123456789", 123456789.0},
  };
  for (const auto& [text, want] : good) {
    Result<JsonValue> v = ParseJson(text);
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    EXPECT_TRUE(v->Is(JsonValue::Kind::kNumber)) << text;
    EXPECT_EQ(v->number, want) << text;
  }
  for (const char* bad : {"01", "-01", "1.", "1.2.3", "+1", "1-2", ".5", "-",
                          "1e", "1e+", "1.e3", "0x10", "1e999", "-1e999",
                          "[1.]", "[01]", "{\"a\": 1.}", "NaN", "Infinity"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

// --- Shape checker ---------------------------------------------------------

const Shape kColor = OneOf({"red", "green"});
const Shape kPoint = Object({{"x", &kAnyNumber}, {"y", &kAnyNumber}});
const Shape kPoints = ArrayOf(&kPoint);
const Shape kTags = ArrayOf(&kAnyString);
const Shape kScores = MapOf(&kPoint);
const Shape kDoc = Object({
    {"name", &kAnyString},
    {"color", &kColor},
    {"note", &kAnyString, Presence::kNullable},
    {"hidden", &kAnyBool, Presence::kOptional},
    {"points", &kPoints},
    {"tags", &kTags},
    {"scores", &kScores},
});

std::string Check(const std::string& text) {
  Result<JsonValue> v = ParseJson(text);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? CheckShape(*v, kDoc) : "unparsed";
}

const char kGood[] =
    R"({"name": "n", "color": "red", "note": null, "points": [{"x": 1, )"
    R"("y": 2}], "tags": ["a"], "scores": {"p": {"x": 0, "y": 0}}})";

TEST(JsonShapeTest, MatchingDocumentPasses) {
  EXPECT_EQ(Check(kGood), "");
  EXPECT_EQ(Check(R"({"name": "n", "color": "green", "note": "text", )"
                  R"("hidden": true, "points": [], "tags": [], )"
                  R"("scores": {}, "extra": 5})"),
            "");
}

TEST(JsonShapeTest, MissingKeyNamesItsPath) {
  EXPECT_EQ(Check(R"({"color": "red"})"), "missing name");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "points": [], )"
                  R"("tags": [], "scores": {}})"),
            "missing note");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": null, )"
                  R"("points": [{"x": 1, "y": 2}, {"x": 1}], "tags": [], )"
                  R"("scores": {}})"),
            "missing points[1].y");
}

TEST(JsonShapeTest, WrongKindNamesItsPath) {
  Result<JsonValue> top = ParseJson("[]");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(CheckShape(*top, kDoc), "top level must be an object");
  EXPECT_EQ(Check(R"({"name": 5})"), "name must be a string");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": null, )"
                  R"("hidden": "yes"})"),
            "hidden must be a bool");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": null, )"
                  R"("points": {}})"),
            "points must be an array");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": null, )"
                  R"("points": [], "tags": ["a", 2]})"),
            "tags[1] must be a string");
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": null, )"
                  R"("points": [], "tags": [], )"
                  R"("scores": {"p": {"x": 0, "y": "0"}}})"),
            "scores.p.y must be a number");
}

TEST(JsonShapeTest, NullableAcceptsNullOrItsKind) {
  EXPECT_EQ(Check(R"({"name": "n", "color": "red", "note": 3})"),
            "note must be a string or null");
  EXPECT_EQ(Check(R"({"name": null})"), "name must be a string");
}

TEST(JsonShapeTest, TokenListsRejectOtherStrings) {
  EXPECT_EQ(Check(R"({"name": "n", "color": "blue"})"),
            "color must be one of \"red\"|\"green\", not \"blue\"");
  EXPECT_EQ(Check(R"({"name": "n", "color": 1})"), "color must be a string");
}

}  // namespace
}  // namespace gamedb::json
