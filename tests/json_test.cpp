// Tests for ivnet/common/json: escaping, writer structure, and the
// validating reader (spans, escapes, lazy exact numbers, rejections).
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>

#include "ivnet/common/json.hpp"

namespace ivnet {
namespace {

/// The document parsed, or a test failure.
JsonValue parse_ok(std::string_view text) {
  const std::optional<JsonValue> doc = json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc.value();
}

TEST(JsonEscape, PassthroughAndSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string("ctl\x01") ), "ctl\\u0001");
}

TEST(JsonEscape, ShortEscapesForAllTwoCharForms) {
  // RFC 8259 two-character escapes, including backspace and form feed.
  EXPECT_EQ(json_escape("\b"), "\\b");
  EXPECT_EQ(json_escape("\f"), "\\f");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("a\bb\fc"), "a\\bb\\fc");
}

TEST(JsonEscape, EveryControlCharEscaped) {
  // All of 0x00..0x1F must come out escaped one way or another; the result
  // must contain no raw control bytes.
  for (int c = 0; c < 0x20; ++c) {
    std::string in(1, static_cast<char>(c));
    const std::string out = json_escape(in);
    ASSERT_GE(out.size(), 2u) << "control char " << c << " not escaped";
    EXPECT_EQ(out[0], '\\') << "control char " << c;
    for (char byte : out) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u);
    }
  }
  // Spot-check the \uXXXX form for chars without a short escape.
  EXPECT_EQ(json_escape(std::string(1, '\x00')), "\\u0000");
  EXPECT_EQ(json_escape(std::string(1, '\x0b')), "\\u000b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, HighBytesPassThrough) {
  // UTF-8 continuation bytes (>= 0x80) are not control chars: pass through
  // so multi-byte characters survive.
  const std::string utf8 = "\xc3\xa9";  // e-acute
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "ivn");
  w.field("antennas", 10);
  w.field("gain", 85.5);
  w.field("ok", true);
  w.key("missing").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"ivn\",\"antennas\":10,\"gain\":85.5,"
            "\"ok\":true,\"missing\":null}");
}

TEST(JsonWriter, NestedArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("offsets").begin_array();
  w.value(0).value(7).value(20);
  w.end_array();
  w.key("rows").begin_array();
  w.begin_object().field("n", 1).end_object();
  w.begin_object().field("n", 2).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"offsets\":[0,7,20],\"rows\":[{\"n\":1},{\"n\":2}]}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, TopLevelArray) {
  JsonWriter w;
  w.begin_array().value(1.5).value("x").value(false).end_array();
  EXPECT_EQ(w.str(), "[1.5,\"x\",false]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, SizeTValues) {
  JsonWriter w;
  w.begin_object().field("count", std::size_t{42}).end_object();
  EXPECT_EQ(w.str(), "{\"count\":42}");
}

TEST(JsonWriter, IncompleteIsReported) {
  JsonWriter w;
  w.begin_object();
  EXPECT_FALSE(w.complete());
}

// The writer formats doubles with std::to_chars (shortest round-trip), so
// the bytes are a function of the value alone — no locale, no libc printf
// quirks. These pin the corners: denormals, huge magnitudes, negative zero,
// and the fixed-vs-scientific tie rule.
TEST(JsonWriter, DoubleFormattingIsByteStableAtTheExtremes) {
  JsonWriter w;
  w.begin_array()
      .value(5e-324)  // smallest denormal
      .value(1.7976931348623157e308)  // largest finite
      .value(-0.0)
      .value(1e-5)
      .value(600000.0)  // scientific strictly shorter -> scientific
      .value(10000.0)   // tie -> fixed preferred
      .end_array();
  EXPECT_EQ(w.str(),
            "[5e-324,1.7976931348623157e+308,-0,1e-05,6e+05,10000]");
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  // Shortest-round-trip means strtod(output) == input bit-for-bit.
  const double values[] = {5e-324, 1.7976931348623157e308, -0.0, 0.1,
                           1.0 / 3.0, 2.5e-3, 6.02214076e23};
  for (const double v : values) {
    JsonWriter w;
    w.begin_array().value(v).end_array();
    const std::string doc = w.str();
    const double parsed = std::strtod(doc.c_str() + 1, nullptr);
    EXPECT_EQ(std::signbit(parsed), std::signbit(v)) << doc;
    EXPECT_EQ(parsed, v) << doc;
    // The reader's from_chars conversion gives back the same bits.
    const double read = parse_ok(doc).items().at(0).value.number().value();
    EXPECT_EQ(std::signbit(read), std::signbit(v)) << doc;
    EXPECT_EQ(read, v) << doc;
  }
}

// --- Reader ----------------------------------------------------------------

TEST(JsonReader, PullsStringsBackOutOfWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "decode");
  w.field("seed", "18446744073709551615");  // u64 max as a decimal string
  w.field("note", "line1\nline2\t\"quoted\"");
  w.end_object();
  const JsonValue doc = parse_ok(w.str());
  EXPECT_EQ(doc.find("name")->string(), "decode");
  EXPECT_EQ(doc.find("seed")->string(), "18446744073709551615");
  EXPECT_EQ(json_uint64(*doc.find("seed")->string()),
            std::uint64_t{18446744073709551615u});
  EXPECT_EQ(doc.find("note")->string(), "line1\nline2\t\"quoted\"");
}

TEST(JsonReader, EveryControlCharacterRoundTrips) {
  // The writer \u-escapes the control characters without a short form; the
  // reader must undo every one of 0x00..0x1f, not drop the backslash.
  for (int c = 0; c < 0x20; ++c) {
    const std::string text = {'a', static_cast<char>(c), 'b'};
    JsonWriter w;
    w.begin_array().value(text).end_array();
    const std::vector<JsonMember> items = parse_ok(w.str()).items();
    ASSERT_EQ(items.size(), 1u);
    EXPECT_EQ(items[0].value.string(), text) << "control char " << c;
  }
  EXPECT_EQ(parse_ok("\"\\u0041\\/\"").string(), "A/");
  // \u escapes beyond ASCII are outside the writer's subset.
  EXPECT_FALSE(json_parse("\"\\u00e9\"").has_value());
}

TEST(JsonReader, AbsentOrMistypedMembers) {
  const JsonValue doc = parse_ok("{\"a\":\"x\",\"n\":42}");
  EXPECT_FALSE(doc.find("b").has_value());
  EXPECT_FALSE(doc.find("n")->string().has_value());
  EXPECT_FALSE(doc.find("a")->number().has_value());
  EXPECT_DOUBLE_EQ(doc.number_or("a", -7.0), -7.0);
  EXPECT_DOUBLE_EQ(doc.number_or("b", -7.0), -7.0);
  EXPECT_FALSE(parse_ok("[1]").find("a").has_value());
  // Whitespace between every token is fine.
  EXPECT_EQ(parse_ok(" {\"a\" :  \"ok\" } ").find("a")->string(), "ok");
}

TEST(JsonReader, PullsNumbersBackOutOfWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("p50", 85.25);
  w.field("trials", std::size_t{150});
  w.field("loss_db", -12.5);
  w.end_object();
  const JsonValue doc = parse_ok(w.str());
  EXPECT_DOUBLE_EQ(doc.number_or("p50", 0.0), 85.25);
  EXPECT_DOUBLE_EQ(doc.number_or("trials", 0.0), 150.0);
  EXPECT_EQ(doc.find("trials")->uint64(), 150u);
  EXPECT_DOUBLE_EQ(doc.number_or("loss_db", 0.0), -12.5);
  EXPECT_FALSE(doc.find("loss_db")->uint64().has_value());
  EXPECT_DOUBLE_EQ(parse_ok("{\"x\": 2.5e-3}").number_or("x", 0.0), 2.5e-3);
}

TEST(JsonReader, SkipsAnyJsonWhitespaceAroundTokens) {
  // Pretty-printed documents put tabs and newlines after the colon; all
  // four JSON whitespace bytes are legal there.
  EXPECT_DOUBLE_EQ(parse_ok("{\"x\":\t4.5}").number_or("x", 0.0), 4.5);
  EXPECT_DOUBLE_EQ(parse_ok("{\"x\":\n  -2}").number_or("x", 0.0), -2.0);
  EXPECT_DOUBLE_EQ(parse_ok("{\"x\":\r\n7e2}").number_or("x", 0.0), 700.0);
  EXPECT_FALSE(json_parse("{\"x\": \t").has_value());
}

TEST(JsonReader, ParsesIndependentlyOfTheProcessLocale) {
  // strtod under a comma-decimal locale reads "0.5" as 0 and journals
  // written on one machine would parse differently on another; the
  // from_chars conversion must not consult the locale at all.
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const double gain = parse_ok("{\"gain\":0.5}").number_or("gain", -1.0);
  const double sci = parse_ok("{\"ber\":2.5e-3}").number_or("ber", -1.0);
  const std::optional<double> flag = json_number("0.25");
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_DOUBLE_EQ(gain, 0.5);
  EXPECT_DOUBLE_EQ(sci, 2.5e-3);
  EXPECT_EQ(flag, 0.25);
}

TEST(JsonReader, ValuesViewTheirRawSpans) {
  const std::string text =
      "{\"hash\":\"00ab\",\"cell\":{\"k\":[1,{\"}\":\"]\"}]},\"result\":"
      "{\"sum\":1},\"t\":true,\"f\":false,\"z\":null}";
  const JsonValue doc = parse_ok(text);
  EXPECT_EQ(doc.raw(), text);
  EXPECT_EQ(doc.kind(), JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("hash")->raw(), "\"00ab\"");
  EXPECT_EQ(doc.find("cell")->raw(), "{\"k\":[1,{\"}\":\"]\"}]}");
  EXPECT_EQ(doc.find("result")->raw(), "{\"sum\":1}");
  EXPECT_EQ(doc.find("t")->kind(), JsonValue::Kind::kBool);
  EXPECT_EQ(doc.find("z")->kind(), JsonValue::Kind::kNull);
  const std::vector<JsonMember> members = doc.items();
  ASSERT_EQ(members.size(), 6u);
  EXPECT_EQ(members[1].key, "cell");
  // Collected while parsing: the same items, in one pass over the bytes.
  std::vector<JsonMember> collected = {members[0]};
  ASSERT_TRUE(json_parse(text, &collected).has_value());
  ASSERT_EQ(collected.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(collected[i].key, members[i].key);
    EXPECT_EQ(collected[i].value.raw(), members[i].value.raw());
  }
  EXPECT_FALSE(json_parse("{\"a\":1,\"b\":", &collected).has_value());
  EXPECT_TRUE(collected.empty()) << "a failed parse leaves no items";
  // The first of duplicate keys wins.
  EXPECT_DOUBLE_EQ(parse_ok("{\"a\":1,\"a\":2}").number_or("a", 0.0), 1.0);
}

TEST(JsonReader, RejectsMalformedInput) {
  const char* bad[] = {
      "",           " ",         "{",          "}",         "{\"a\":1",
      "{\"a\":1}x", "{\"a\" 1}", "{a:1}",      "{\"a\":1,}", "[1,]",
      "[1 2]",      "\"open",    "\"\\x\"",    "\"\\u12\"",  "\"\\u0g00\"",
      "01",         "1.",        ".5",         "+1",         "-",
      "1e",         "1e+",       "tru",        "nulls",      "NaN",
      "{\"a\":1}{}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(json_parse(text).has_value()) << "accepted: " << text;
  }
  const std::string deep = std::string(65, '[') + std::string(65, ']');
  EXPECT_FALSE(json_parse(deep).has_value());
  const std::string ok = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(json_parse(ok).has_value());
}

TEST(JsonReader, WholeTextNumbers) {
  EXPECT_EQ(json_number("-5"), -5.0);
  EXPECT_EQ(json_number("1e3"), 1000.0);
  EXPECT_FALSE(json_number("abc").has_value());
  EXPECT_FALSE(json_number("4 ").has_value());
  EXPECT_FALSE(json_number("1e999").has_value());
  EXPECT_EQ(json_uint64("18446744073709551615"),
            std::uint64_t{18446744073709551615u});
  for (const char* text : {"12abc", "-1", "", "18446744073709551616", "1e3",
                           "1.0", "007", " 1"}) {
    EXPECT_FALSE(json_uint64(text).has_value()) << text;
  }
}

}  // namespace
}  // namespace ivnet
