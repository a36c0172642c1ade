// Minimal JSON reader for the declarative scenario layer.  Self-contained
// (the container bakes in no JSON dependency) and deliberately small: full
// JSON syntax on input — objects, arrays, strings with the standard escapes,
// numbers, booleans, null — with an ergonomic read-side API (typed accessors
// with defaults, error messages carrying the offending key).  Insertion
// order of object keys is preserved; duplicate keys keep the last value.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace abft::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed reads; throw std::invalid_argument on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  // --- object navigation ---------------------------------------------------
  /// Member lookup; nullptr when absent (or when this is not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Member lookup; throws naming the key when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Typed member reads with defaults for absent keys (kind mismatches
  /// still throw, naming the key).
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key, std::string fallback) const;

  /// All keys of an object, in insertion order (empty otherwise).
  [[nodiscard]] std::vector<std::string> keys() const;

  // --- construction (parser + tests) ---------------------------------------
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double x);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// "null", "bool", "number", "string", "array" or "object".
const char* kind_name(JsonValue::Kind kind);

/// Deepest array/object nesting parse_json accepts: the reader recurses once
/// per level, so an unbounded depth would let a crafted file overflow the
/// stack.  Committed specs nest at most 5 levels.
inline constexpr int kMaxJsonDepth = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing content
/// not).  Throws std::invalid_argument with a line:column position on
/// malformed input, including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// Reads and parses a JSON file; throws std::invalid_argument naming the
/// path when the file cannot be read.
JsonValue parse_json_file(const std::string& path);

// --- emission / validation helpers shared by the spec layers ---------------

/// Writes `text` as a JSON string literal with the mandatory escapes (spec
/// names are free-form user text).
void write_json_string(std::ostream& os, std::string_view text);

/// Number formatted to 12 significant digits — the stable contract of every
/// machine summary (write_result_json, the sweep CSV/JSON writers) and of
/// the tolerances in scripts/compare_scenario.py / compare_sweep.py.
/// Non-finite values render as "nan"/"inf" — fine inside a CSV cell, NOT
/// valid JSON; JSON emitters must go through write_json_number instead.
std::string format_json_number(double value);

/// format_json_number for JSON documents: non-finite values (a diverged
/// run's nan final_dist, an inf cost) are emitted as `null`, which JSON can
/// carry and parse_json round-trips; finite values are unchanged.
void write_json_number(std::ostream& os, double value);

/// The one numeric comparison contract shared by abft_run --compare and the
/// Python comparators (compare_scenario / compare_sweep / bench_diff):
/// nan matches nan (a reproducibly diverged run is a *match*, a one-sided
/// nan is a mismatch), otherwise |a - b| <= rtol * max(|a|, |b|, 1).
bool numbers_match(double a, double b, double rtol);

/// Throws std::invalid_argument naming the first key of `object` not in
/// `allowed`, as "<layer>: unknown key \"k\" in <where>".
void require_known_keys(const JsonValue& object, std::string_view layer,
                        std::string_view where,
                        std::initializer_list<std::string_view> allowed);

/// A JSON number read as an int.  Throws std::invalid_argument, as
/// "<layer>: <what> must be an integer in int range, got v", when `value`
/// has a fractional part or lies outside int: a plain cast would run 2.7
/// as 2 and is undefined behaviour past INT_MAX.
int checked_int(double value, std::string_view layer, std::string_view what);

}  // namespace abft::util
