// Minimal JSON for reports and durable state: a streaming writer (objects,
// arrays, strings, numbers, booleans; control characters escaped) and one
// validating reader for the subset it emits.
//
// json_parse() checks a whole document in one pass (every escape the
// writer emits, \uXXXX for ASCII included; the JSON number grammar;
// true/false/null; no trailing bytes) and builds no tree: a JsonValue is a view of its raw
// bytes, so a stored record can be spliced back out verbatim. Other bytes
// inside strings pass through, so a hand-built result carrying a raw \r
// still reads back. Numbers convert only on access, with std::from_chars:
// locale-free, and the writer's shortest-round-trip doubles read back
// bit-exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ivnet {

/// Escape a string for inclusion inside JSON quotes.
std::string json_escape(std::string_view text);

struct JsonMember;

/// One value inside a document json_parse() accepted. It views the
/// caller's text, which must outlive it and every value taken from it.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const;
  /// The value's exact bytes (a string keeps its quotes and escapes).
  std::string_view raw() const { return raw_; }

  /// The number as a double; nullopt when this is not a number or it
  /// overflows a finite double.
  std::optional<double> number() const;
  /// The number as an exact unsigned 64-bit integer; nullopt unless it is
  /// a plain non-negative integer (no fraction or exponent) below 2^64.
  std::optional<std::uint64_t> uint64() const;
  /// The string with every escape undone; nullopt when not a string.
  std::optional<std::string> string() const;

  /// An object's members, or an array's elements with empty keys, in
  /// document order; empty for other kinds. Keys are raw: the bytes
  /// between the key's quotes, escapes intact, which is json_escape(name)
  /// for a key the writer emitted. Each call re-walks the value's bytes.
  std::vector<JsonMember> items() const;
  /// The first member whose raw key is `key`; nullopt when there is none
  /// or this is not an object.
  std::optional<JsonValue> find(std::string_view key) const;
  /// find(key)->number(), or `fallback` when that member is absent or not
  /// a number.
  double number_or(std::string_view key, double fallback) const;

 private:
  friend std::optional<JsonValue> json_parse(std::string_view text,
                                             std::vector<JsonMember>* items);
  explicit JsonValue(std::string_view raw) : raw_(raw) {}
  /// Validates the value starting at `p`: one past its end, or nullptr on
  /// a syntax error. Collects its items into `items` when given.
  static const char* scan(const char* p, const char* end, int depth,
                          std::vector<JsonMember>* items);

  std::string_view raw_;
};

struct JsonMember {
  std::string_view key;
  JsonValue value;
};

/// The one JSON value `text` holds, surrounding whitespace allowed;
/// nullopt on any syntax error, any trailing byte, or nesting deeper than
/// 64 levels. With `items`, the value's items() are collected in the same
/// pass (left empty on failure), so a caller reading every member of a
/// record walks its bytes once.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::vector<JsonMember>* items = nullptr);

/// `text` read whole as one JSON number (no whitespace): the strict
/// parser for numbers that arrive as text outside a document, such as
/// command-line flags.
std::optional<double> json_number(std::string_view text);
/// `text` read whole as an exact unsigned 64-bit decimal integer in the
/// JSON number grammar: "12abc", "-1", "", "1e3" and "18446744073709551616"
/// are all nullopt.
std::optional<std::uint64_t> json_uint64(std::string_view text);

/// Streaming JSON writer with explicit begin/end nesting.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("gain").value(85.2);
///   w.key("series").begin_array().value(1).value(2).end_array();
///   w.end_object();
///   std::string out = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key (must be inside an object).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(int number);
  JsonWriter& value(std::size_t number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The serialized document. Valid once all containers are closed.
  const std::string& str() const { return out_; }

  /// True when every begin_* has been matched by an end_*.
  bool complete() const { return stack_.empty() && !out_.empty(); }

 private:
  void comma_if_needed();

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;  // parallel to stack_: next item is the first?
};

}  // namespace ivnet
