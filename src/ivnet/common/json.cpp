#include "ivnet/common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ivnet {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- Reader -----------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;  // far deeper than anything the writer emits

const char* skip_space(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
    ++p;
  }
  return p;
}

/// One or more digits at `p`, or nullptr.
const char* skip_digits(const char* p, const char* end) {
  if (p == end || *p < '0' || *p > '9') return nullptr;
  while (p != end && *p >= '0' && *p <= '9') ++p;
  return p;
}

/// The value of the four hex digits at `p`, or -1.
long hex4(const char* p, const char* end) {
  unsigned value = 0;
  if (end - p < 4 || std::from_chars(p, p + 4, value, 16).ptr != p + 4) {
    return -1;
  }
  return value;
}

// Each scan_* starts at its token's first byte and returns one past its
// last, or nullptr on a syntax error.

const char* scan_number(const char* p, const char* end) {
  if (p != end && *p == '-') ++p;
  if (p != end && *p == '0') {
    ++p;
  } else if ((p = skip_digits(p, end)) == nullptr) {
    return nullptr;
  }
  if (p != end && *p == '.' && (p = skip_digits(p + 1, end)) == nullptr) {
    return nullptr;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    if (++p != end && (*p == '+' || *p == '-')) ++p;
    p = skip_digits(p, end);
  }
  return p;
}

const char* scan_string(const char* p, const char* end) {
  for (++p; p != end; ++p) {
    if (*p == '"') return p + 1;
    if (*p != '\\') continue;
    if (++p == end) return nullptr;
    if (*p == 'u') {
      // The writer \u-escapes control characters only: ASCII is the subset.
      const long code = hex4(p + 1, end);
      if (code < 0 || code >= 0x80) return nullptr;
      p += 4;
    } else if (std::string_view("\"\\/bfnrt").find(*p) ==
               std::string_view::npos) {
      return nullptr;
    }
  }
  return nullptr;  // unterminated
}

/// The whole of `number` as a T; nullopt when from_chars stops early or
/// the value does not fit. Non-number JSON text never converts, since it
/// cannot start like a number.
template <typename T>
std::optional<T> convert(std::string_view number) {
  T value{};
  const char* end = number.data() + number.size();
  const auto [next, ec] = std::from_chars(number.data(), end, value);
  if (ec != std::errc() || next != end) return std::nullopt;
  return value;
}

/// `text` whole in the JSON number grammar, converted.
template <typename T>
std::optional<T> convert_number_text(std::string_view text) {
  const char* end = text.data() + text.size();
  if (scan_number(text.data(), end) != end) return std::nullopt;
  return convert<T>(text);
}

}  // namespace

const char* JsonValue::scan(const char* p, const char* end, int depth,
                            std::vector<JsonMember>* items) {
  if (p == end) return nullptr;
  if (*p == '"') return scan_string(p, end);
  if (*p == '{' || *p == '[') {
    const char close = *p == '{' ? '}' : ']';
    if (depth == kMaxDepth) return nullptr;
    p = skip_space(p + 1, end);
    if (p != end && *p == close) return p + 1;
    while (true) {
      std::string_view key;
      if (close == '}') {
        const char* key_begin = p;
        if (p == end || *p != '"' || (p = scan_string(p, end)) == nullptr) {
          return nullptr;
        }
        key = std::string_view(key_begin + 1, p - key_begin - 2);
        p = skip_space(p, end);
        if (p == end || *p != ':') return nullptr;
        p = skip_space(p + 1, end);
      }
      const char* value = p;
      if ((p = scan(p, end, depth + 1, nullptr)) == nullptr) return nullptr;
      if (items != nullptr) {
        items->push_back({key, JsonValue(std::string_view(value, p - value))});
      }
      p = skip_space(p, end);
      if (p != end && *p == close) return p + 1;
      if (p == end || *p != ',') return nullptr;
      p = skip_space(p + 1, end);
    }
  }
  if (*p == 't' || *p == 'f' || *p == 'n') {
    const std::string_view word = *p == 't' ? "true"
                                  : *p == 'f' ? "false"
                                              : "null";
    if (!std::string_view(p, end - p).starts_with(word)) return nullptr;
    return p + word.size();
  }
  return scan_number(p, end);
}

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::vector<JsonMember>* items) {
  if (items != nullptr) items->clear();
  const char* end = text.data() + text.size();
  const char* begin = skip_space(text.data(), end);
  const char* value_end = JsonValue::scan(begin, end, 0, items);
  if (value_end == nullptr || skip_space(value_end, end) != end) {
    if (items != nullptr) items->clear();
    return std::nullopt;
  }
  return JsonValue(std::string_view(begin, value_end - begin));
}

std::optional<double> json_number(std::string_view text) {
  return convert_number_text<double>(text);
}

std::optional<std::uint64_t> json_uint64(std::string_view text) {
  return convert_number_text<std::uint64_t>(text);
}

JsonValue::Kind JsonValue::kind() const {
  switch (raw_.front()) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't': case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

std::optional<double> JsonValue::number() const {
  return convert<double>(raw_);
}

std::optional<std::uint64_t> JsonValue::uint64() const {
  return convert<std::uint64_t>(raw_);
}

std::optional<std::string> JsonValue::string() const {
  if (kind() != Kind::kString) return std::nullopt;
  std::string out;
  const char* end = raw_.data() + raw_.size() - 1;  // the closing quote
  for (const char* p = raw_.data() + 1; p != end; ++p) {
    if (*p != '\\') {
      out += *p;
      continue;
    }
    switch (*++p) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': out += static_cast<char>(hex4(p + 1, end)); p += 4; break;
      default: out += *p; break;  // \" \\ \/
    }
  }
  return out;
}

std::vector<JsonMember> JsonValue::items() const {
  std::vector<JsonMember> out;
  scan(raw_.data(), raw_.data() + raw_.size(), 0, &out);
  return out;
}

std::optional<JsonValue> JsonValue::find(std::string_view key) const {
  if (kind() == Kind::kObject) {
    for (const JsonMember& m : items()) {
      if (m.key == key) return m.value;
    }
  }
  return std::nullopt;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const std::optional<JsonValue> value = find(key);
  return value ? value->number().value_or(fallback) : fallback;
}

// --- Writer -----------------------------------------------------------------

void JsonWriter::comma_if_needed() {
  if (stack_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  // The upcoming value must not emit another comma.
  if (!first_.empty()) first_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  comma_if_needed();
  if (std::isfinite(number)) {
    // Shortest round-trip form via to_chars: locale- and libc-independent,
    // unlike printf %g, so snapshots compare byte-equal across platforms.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), number);
    out_.append(buf, res.ptr);
  } else {
    out_ += "null";  // JSON has no inf/nan
  }
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::size_t number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  comma_if_needed();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_if_needed();
  out_ += "null";
  return *this;
}

}  // namespace ivnet
