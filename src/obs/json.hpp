// Minimal JSON support for the observability exporters.
//
// The writer side is a pair of formatting helpers (string escaping and
// round-trippable number printing); the reader side is a small
// recursive-descent parser over the full JSON grammar. The parser exists so
// the JSONL metrics exporter can be round-trip tested and so downstream
// tooling (tests, analysis scripts compiled against the library) can load
// exported artifacts without a third-party dependency.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::obs {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Format a finite double so that parsing the result with strtod recovers
/// the exact same bits (shortest form up to max_digits10). Integers within
/// 2^53 print without an exponent or trailing ".0".
[[nodiscard]] std::string json_number(double x);

/// A parsed JSON document. Object member order is preserved.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Object lookup with a contract that the member exists.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parse one JSON document. Returns nullopt on any syntax error or on
/// trailing non-whitespace input.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace amoeba::obs
