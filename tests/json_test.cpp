#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "json/json.h"
#include "json/reader.h"
#include "util/load_error.h"
#include "util/units.h"

namespace elastisim::json {
namespace {

// ---------------------------------------------------------------------------
// Parsing scalars
// ---------------------------------------------------------------------------

TEST(JsonParse, Null) { EXPECT_TRUE(parse("null").is_null()); }

TEST(JsonParse, Booleans) {
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
}

TEST(JsonParse, Integers) {
  EXPECT_DOUBLE_EQ(parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-17").as_double(), -17.0);
  EXPECT_EQ(parse("42").as_int(), 42);
}

TEST(JsonParse, Doubles) {
  EXPECT_DOUBLE_EQ(parse("3.125").as_double(), 3.125);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-2").as_double(), -0.025);
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
  EXPECT_EQ(parse("\"\"").as_string(), "");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
}

TEST(JsonParse, UnicodeEscapeBasic) {
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, UnicodeEscapeMultibyte) {
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
}

TEST(JsonParse, UnicodeEscapeThreeByte) {
  EXPECT_EQ(parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, UnicodeSurrogatePair) {
  // U+1F600 as surrogate pair D83D DE00 -> 4-byte UTF-8.
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, NestedStructure) {
  const Value value = parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  const Array& a = value.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_double(), 1.0);
  EXPECT_TRUE(a[2].find("b")->as_bool());
  EXPECT_TRUE(value.find("c")->is_null());
}

TEST(JsonParse, ObjectPreservesInsertionOrder) {
  const Value value = parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [key, member] : value.as_object()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonParse, WhitespaceTolerated) {
  EXPECT_DOUBLE_EQ(parse(" \n\t { \"a\" :\r 1 } ").find("a")->as_double(), 1.0);
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(JsonParse, RejectsTrailingGarbage) { EXPECT_THROW(parse("1 2"), ParseError); }

TEST(JsonParse, RejectsUnterminatedString) { EXPECT_THROW(parse("\"abc"), ParseError); }

TEST(JsonParse, RejectsUnterminatedArray) { EXPECT_THROW(parse("[1, 2"), ParseError); }

TEST(JsonParse, RejectsBadLiteral) { EXPECT_THROW(parse("tru"), ParseError); }

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), ParseError);
}

TEST(JsonParse, RejectsBareNumberEdgeCases) {
  EXPECT_THROW(parse("1."), ParseError);
  EXPECT_THROW(parse("-"), ParseError);
  EXPECT_THROW(parse("1e"), ParseError);
}

TEST(JsonParse, RejectsControlCharacterInString) {
  EXPECT_THROW(parse("\"a\nb\""), ParseError);
}

TEST(JsonParse, RejectsUnpairedSurrogate) {
  EXPECT_THROW(parse(R"("\ud83d")"), ParseError);
  EXPECT_THROW(parse(R"("\ude00")"), ParseError);
}

TEST(JsonParse, ErrorReportsPosition) {
  try {
    parse("{\n  \"a\": tru\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_GT(error.column(), 1u);
  }
}

TEST(JsonParse, EmptyInputFails) { EXPECT_THROW(parse(""), ParseError); }

// ---------------------------------------------------------------------------
// Value API
// ---------------------------------------------------------------------------

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(parse("1").as_string(), std::runtime_error);
  EXPECT_THROW(parse("\"x\"").as_double(), std::runtime_error);
  EXPECT_THROW(parse("[]").as_object(), std::runtime_error);
}

TEST(JsonValue, GetOrFallsBack) {
  EXPECT_EQ(parse("\"x\"").get_or(5.0), 5.0);
  EXPECT_EQ(parse("2").get_or(std::int64_t{5}), 2);
  EXPECT_EQ(parse("true").get_or(false), true);
}

TEST(JsonValue, MemberOr) {
  const Value value = parse(R"({"n": 3, "s": "hi"})");
  EXPECT_EQ(value.member_or("n", std::int64_t{0}), 3);
  EXPECT_EQ(value.member_or("missing", std::int64_t{9}), 9);
  EXPECT_EQ(value.member_or("s", "dflt"), "hi");
  EXPECT_EQ(value.member_or("missing", "dflt"), "dflt");
}

TEST(JsonValue, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(parse("[1]").find("a"), nullptr);
}

TEST(JsonValue, Equality) {
  EXPECT_EQ(parse(R"({"a": [1, 2]})"), parse(R"({"a": [1, 2]})"));
  EXPECT_FALSE(parse("{\"a\": 1}") == parse("{\"a\": 2}"));
  // Member order is irrelevant to equality.
  EXPECT_EQ(parse(R"({"a": 1, "b": 2})"), parse(R"({"b": 2, "a": 1})"));
}

TEST(JsonValue, ObjectBracketInsertsAndFinds) {
  Object object;
  object["k"] = Value(1.5);
  EXPECT_TRUE(object.contains("k"));
  EXPECT_DOUBLE_EQ(object.find("k")->as_double(), 1.5);
  object["k"] = Value(2.5);  // overwrite, no duplicate
  EXPECT_EQ(object.size(), 1u);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(JsonDump, CompactRoundTrip) {
  const std::string text = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
  EXPECT_EQ(dump(parse(text)), text);
}

TEST(JsonDump, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(dump(Value(3.0)), "3");
  EXPECT_EQ(dump(Value(2.5)), "2.5");
}

TEST(JsonDump, EscapesSpecialCharacters) {
  EXPECT_EQ(dump(Value("a\"b\\c\nd")), R"("a\"b\\c\nd")");
}

TEST(JsonDump, EscapesControlCharacters) {
  EXPECT_EQ(dump(Value(std::string("\x01", 1))), "\"\\u0001\"");
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(dump(Value(std::numeric_limits<double>::infinity())), "null");
}

TEST(JsonDump, PrettyParsesBack) {
  const Value original = parse(R"({"a": [1, {"b": [2, 3]}], "c": "x"})");
  EXPECT_EQ(parse(dump_pretty(original)), original);
}

TEST(JsonDump, PrettyIndents) {
  const std::string pretty = dump_pretty(parse(R"({"a": 1})"));
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

TEST(JsonFile, RoundTrip) {
  const std::string path = testing::TempDir() + "/elsim_json_test.json";
  const Value original = parse(R"({"nested": {"list": [1, 2, 3]}})");
  write_file(path, original);
  EXPECT_EQ(parse_file(path), original);
  std::remove(path.c_str());
}

TEST(JsonFile, MissingFileThrows) {
  EXPECT_THROW(parse_file("/nonexistent/path/x.json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Strict reader
// ---------------------------------------------------------------------------

std::optional<int> color_from_string(std::string_view name) {
  if (name == "red") return 1;
  if (name == "blue") return 2;
  return std::nullopt;
}

TEST(JsonReader, ReadsWellFormedMembers) {
  const Value value = parse(R"({"n": 9007199254740991, "k": -3, "q": "2KiB", "r": 250,
                                "d": 1.5, "b": false, "s": "x", "c": "blue",
                                "o": {"x": 1}, "a": [4, [5]]})");
  Reader reader(value, "$");
  EXPECT_EQ(reader.integer<std::uint64_t>("n", std::nullopt), 9007199254740991u);
  EXPECT_EQ(reader.integer<int>("k", std::nullopt), -3);
  EXPECT_EQ(reader.integer<int>("absent", 7, 1), 7);
  EXPECT_EQ(reader.quantity("q", std::nullopt, util::parse_bytes, Min::kZero), 2048.0);
  EXPECT_EQ(reader.quantity("r", std::nullopt, util::parse_duration, Min::kAboveZero), 250.0);
  EXPECT_EQ(reader.number("d", std::nullopt), 1.5);
  EXPECT_FALSE(reader.boolean("b", true));
  EXPECT_EQ(reader.string("s", std::nullopt), "x");
  EXPECT_EQ(reader.choice("c", 1, color_from_string, "red or blue"), 2);
  std::optional<Reader> child = reader.find("o");
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->integer<int>("x", std::nullopt), 1);
  child->finish();
  EXPECT_FALSE(reader.find("absent_object").has_value());
  const std::vector<Element> entries = reader.array("a", "an array", true);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(read_integer(entries[0].value, entries[0].path, 0, 9), 4);
  const std::vector<Element> nested = elements(entries[1].value, entries[1].path, "an array");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].path, "$.a[1][0]");
  EXPECT_TRUE(reader.array("absent_array", "an array", false).empty());
  EXPECT_NO_THROW(reader.finish());
}

// Each row reads one malformed member; the LoadError names its path, what
// was expected, and what was found ("nothing" for a missing member).
TEST(JsonReader, MalformedMemberThrowsAtItsJsonPath) {
  using Read = std::function<void(Reader&)>;
  const struct {
    const char* text;
    Read read;
    const char* path;
    const char* expected;
    const char* found;
  } cases[] = {
      // Integers: the literal written, inside +-(2^53 - 1) and the target type.
      {R"({"n": 9007199254740992})",
       [](Reader& r) { r.integer<std::uint64_t>("n", std::nullopt); }, "$.n",
       "a non-negative integer below 2^53", "9007199254740992"},
      {R"({"n": -9007199254740992})",
       [](Reader& r) { r.integer<std::int64_t>("n", std::nullopt); }, "$.n",
       "an integer no smaller than -9007199254740991", "-9007199254740992"},
      {R"({"n": 2147483648})", [](Reader& r) { r.integer<int>("n", 1, 1); }, "$.n",
       "a positive integer no greater than 2147483647", "2147483648"},
      {R"({"n": -2147483649})", [](Reader& r) { r.integer<int>("n", 0); }, "$.n",
       "an integer no smaller than -2147483648", "-2147483649"},
      {R"({"n": 12.7})", [](Reader& r) { r.integer<int>("n", 1, 1); }, "$.n",
       "a positive integer", "12.7"},
      {R"({"n": -1})", [](Reader& r) { r.integer<unsigned>("n", 0, 0, "integer node id"); },
       "$.n", "a non-negative integer node id", "-1"},
      {R"({"n": "4"})", [](Reader& r) { r.integer<int>("n", 1, 0); }, "$.n",
       "a non-negative integer", "\"4\""},
      {"{}", [](Reader& r) { r.integer<int>("n", std::nullopt, 1); }, "$.n",
       "a positive integer", "nothing"},
      // Quantities: a number or a unit string, finite and above the bound.
      {"{}",
       [](Reader& r) { r.quantity("q", std::nullopt, util::parse_duration, Min::kAboveZero); },
       "$.q", "a positive duration", "nothing"},
      {R"({"q": 0})", [](Reader& r) { r.quantity("q", 1.0, util::parse_flops, Min::kAboveZero); },
       "$.q", "a positive FLOP quantity", "0"},
      {R"({"q": -1})", [](Reader& r) { r.quantity("q", 0.0, util::parse_bytes, Min::kZero); },
       "$.q", "a non-negative byte count", "-1"},
      {R"({"q": "fast"})",
       [](Reader& r) { r.quantity("q", 0.0, util::parse_bandwidth, Min::kZero); }, "$.q",
       "a non-negative bandwidth", "\"fast\""},
      {R"({"q": "nan"})", [](Reader& r) { r.quantity("q", 0.0, util::parse_duration, Min::kZero); },
       "$.q", "a non-negative duration", "\"nan\""},
      {R"({"q": "inf"})", [](Reader& r) { r.quantity("q", 0.0, util::parse_duration, Min::kZero); },
       "$.q", "a non-negative duration", "\"inf\""},
      {R"({"q": true})", [](Reader& r) { r.quantity("q", 0.0, util::parse_duration, Min::kZero); },
       "$.q", "a non-negative duration", "true"},
      // Plain types never fall back on a wrong type.
      {R"({"d": "2"})", [](Reader& r) { r.number("d", 1.0); }, "$.d", "a number", "\"2\""},
      {R"({"b": "false"})", [](Reader& r) { r.boolean("b", true); }, "$.b", "true or false",
       "\"false\""},
      {R"({"s": 5})", [](Reader& r) { r.string("s", "x"); }, "$.s", "a string", "5"},
      {R"({"c": "green"})", [](Reader& r) { r.choice("c", 1, color_from_string, "red or blue"); },
       "$.c", "red or blue", "\"green\""},
      {R"({"c": 2})", [](Reader& r) { r.choice("c", 1, color_from_string, "red or blue"); },
       "$.c", "red or blue", "2"},
      // Containers extend the path.
      {R"({"o": 3})", [](Reader& r) { r.find("o", "an options object"); }, "$.o",
       "an options object", "3"},
      {R"({"o": {"x": 1, "extra": 2}})",
       [](Reader& r) {
         std::optional<Reader> child = r.find("o");
         child->integer<int>("x", 0);
         child->finish();
       },
       "$.o.extra", "a known key", "\"extra\""},
      {R"({"a": {}})", [](Reader& r) { r.array("a", "an array of ids", false); }, "$.a",
       "an array of ids", "{}"},
      {"{}", [](Reader& r) { r.array("a", "an array of ids", true); }, "$.a", "an array of ids",
       "nothing"},
      {R"({"a": [1, [2, "x"]]})",
       [](Reader& r) {
         const std::vector<Element> outer = r.array("a", "an array", true);
         for (const Element& inner : elements(outer[1].value, outer[1].path, "an array")) {
           read_integer(inner.value, inner.path, 0, 9);
         }
       },
       "$.a[1][1]", "a non-negative integer", "\"x\""},
      // Leftover keys: a suggestion when one is close, none otherwise.
      {R"({"flops_per_cor": 1})", [](Reader& r) { r.number("flops_per_core", 1.0); },
       "$.flops_per_cor", "a known key",
       "\"flops_per_cor\" (did you mean \"flops_per_core\"?)"},
      {R"({"frobnicate": 1})", [](Reader& r) { r.integer<int>("nodes", 16, 1); },
       "$.frobnicate", "a known key", "\"frobnicate\""},
      // A missing required member is reported before a leftover key.
      {R"({"nodez": 1})", [](Reader& r) { r.integer<int>("nodes", std::nullopt, 1); },
       "$.nodes", "a positive integer", "nothing"},
  };
  for (const auto& c : cases) {
    try {
      const Value value = parse(c.text);
      Reader reader(value, "$");
      c.read(reader);
      reader.finish();
      ADD_FAILURE() << "expected LoadError for " << c.text;
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), c.path) << c.text;
      EXPECT_EQ(error.expected(), c.expected) << c.text;
      EXPECT_EQ(error.found(), c.found) << c.text;
    }
  }
}

TEST(JsonReader, RejectsNonObject) {
  try {
    Reader(parse("[1, 2]"), "$.jobs[0]", "a job object");
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.jobs[0]");
    EXPECT_EQ(error.expected(), "a job object");
    EXPECT_EQ(error.found(), "[1,2]");
  }
}

}  // namespace
}  // namespace elastisim::json
