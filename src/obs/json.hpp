// Minimal JSON reader for the report tooling (fbt_report render/diff). The
// writer side of the repo emits JSON by hand (run_report.cpp) with a fixed
// key order; this is the matching reader: a small DOM that preserves object
// key order and parses everything the run-report schema can produce. It is
// not a general-purpose JSON library -- no streaming, no \uXXXX surrogate
// pairs (escapes decode to '?' outside ASCII), numbers held as double.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fbt::obs {

/// One parsed JSON value. Objects keep their keys in document order so a
/// rendered diff reads in the same order as the report itself.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Dotted-path lookup through nested objects ("gauges.flow.num_tests"
  /// would NOT work since metric names contain dots -- use find() twice for
  /// those; this is for fixed schema paths like {"memory", "footprints"}).
  const JsonValue* find_path(const std::vector<std::string>& path) const;

  /// number when kNumber, `fallback` otherwise.
  double as_number(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  const std::string& as_string(const std::string& fallback) const {
    return kind == Kind::kString ? string : fallback;
  }
};

/// Parses `text` into `out`. Returns true on success; on failure returns
/// false and fills `error` with a message carrying the byte offset.
bool json_parse(const std::string& text, JsonValue& out, std::string& error);

}  // namespace fbt::obs
