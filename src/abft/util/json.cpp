#include "abft/util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace abft::util {

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  std::ostringstream os;
  os << "json: expected " << wanted << ", found " << kind_name(got);
  throw std::invalid_argument(os.str());
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after the document");
    return value;
  }

 private:
  JsonValue parse_value() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Each level recurses once; a throw abandons the parser, so the
        // depth needs no unwinding.
        if (depth_ == kMaxJsonDepth) {
          fail("arrays/objects nested deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        JsonValue value = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return JsonValue::make_string(parse_string());
      case 't':
        expect_literal("true");
        return JsonValue::make_bool(true);
      case 'f':
        expect_literal("false");
        return JsonValue::make_bool(false);
      case 'n':
        expect_literal("null");
        return JsonValue::make_null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected an object key");
      std::string key = parse_string();
      skip_whitespace();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // UTF-8 encode the BMP code point (specs are ASCII in practice;
            // surrogate pairs are out of scope and flagged).
            if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs are not supported");
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("unknown escape character");
        }
        continue;
      }
      out.push_back(c);
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue::make_number(value);
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) fail("malformed literal");
    pos_ += literal.size();
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  [[noreturn]] void fail(std::string_view message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "json parse error at " << line << ':' << column << ": " << message;
    throw std::invalid_argument(os.str());
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const char* kind_name(JsonValue::Kind kind) {
  static const char* const names[] = {"null", "bool", "number", "string", "array", "object"};
  return names[static_cast<int>(kind)];
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  // Last value wins for duplicate keys, matching common JSON readers.
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) found = &value;
  }
  return found;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* found = find(key);
  if (found == nullptr) {
    throw std::invalid_argument("json: missing required key \"" + std::string(key) + "\"");
  }
  return *found;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* found = find(key);
  return found == nullptr ? fallback : found->as_bool();
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* found = find(key);
  return found == nullptr ? fallback : found->as_number();
}

std::string JsonValue::string_or(std::string_view key, std::string fallback) const {
  const JsonValue* found = find(key);
  return found == nullptr ? std::move(fallback) : found->as_string();
}

std::vector<std::string> JsonValue::keys() const {
  std::vector<std::string> out;
  if (kind_ == Kind::kObject) {
    out.reserve(object_.size());
    for (const auto& [name, value] : object_) out.push_back(name);
  }
  return out;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double x) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = x;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read json file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string format_json_number(double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

void write_json_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    // JSON has no nan/inf literal; a bare "nan" token would make the whole
    // document unparseable.  null is the lossless-enough stand-in the
    // comparators treat as "non-finite here".
    os << "null";
    return;
  }
  os << format_json_number(value);
}

bool numbers_match(double a, double b, double rtol) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::abs(a - b) <= rtol * std::max({std::abs(a), std::abs(b), 1.0});
}

void require_known_keys(const JsonValue& object, std::string_view layer,
                        std::string_view where,
                        std::initializer_list<std::string_view> allowed) {
  for (const auto& key : object.keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::ostringstream os;
      os << layer << ": unknown key \"" << key << "\" in " << where;
      throw std::invalid_argument(os.str());
    }
  }
}

void set_member(std::vector<std::pair<std::string, JsonValue>>& members, std::string_view key,
                JsonValue value) {
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == key) {
      it->second = std::move(value);
      return;
    }
  }
  members.emplace_back(std::string(key), std::move(value));
}

int checked_int(double value, std::string_view layer, std::string_view what) {
  if (!(value == std::floor(value) && value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    std::ostringstream os;
    os << layer << ": " << what << " must be an integer in int range, got "
       << format_json_number(value);
    throw std::invalid_argument(os.str());
  }
  return static_cast<int>(value);
}

}  // namespace abft::util
