// Seeded mutational fuzzer for obs::json_parse, the reader fbt_report feeds
// with report and baseline files it did not write: mutates a run report and
// a small document of escapes and number forms with byte, token and number
// edits and feeds each mutant to the parser. No exception may leave it.
// Every rejection must set an error that names a byte offset inside the
// text, and every accepted document must go through the dashboard renderer
// and the regression diff (both ways) without throwing. The budget is a
// fixed mutant count per seed document, so a run is deterministic; the ctest
// entry runs under label `fuzz`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/report_tools.hpp"
#include "util/rng.hpp"

namespace fbt::obs {
namespace {

constexpr int kMutantsPerDocument = 3000;
constexpr int kMaxEditsPerMutant = 4;

// A run report in the shape fbt_report reads (phases, metrics, analytics,
// jobs, memory), and a document of the escapes and number forms it may meet.
constexpr std::string_view kSeedDocuments[] = {
    R"({
  "schema_version": 5,
  "tool": "bench_flow_smoke",
  "git_sha": "abc1234",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "config": {"driver": "buffers", "length": "200", "target": "s298"},
  "phases": [{"name": "construct", "count": 1, "total_ms": 12.500, "self_ms": 2.250, "rss_delta_bytes": 4096, "alloc_bytes": 1024, "alloc_count": 3, "children": [{"name": "grade", "count": 4, "total_ms": 10.250, "self_ms": 10.250, "rss_delta_bytes": 0, "alloc_bytes": 0, "alloc_count": 0, "children": []}]}],
  "counters": {"bist.segments_built": 12, "fault.pack_groups_simulated": 96},
  "gauges": {"flow.fault_coverage_percent": 87.41, "flow.num_tests": 500, "serve.warm_speedup": 12.5, "fault.pack_speedup_64": 4.2, "obs.flow_run_ms": 1.5e2},
  "histograms": {"fault.grade_duration_ms": {"count": 3, "sum": 5.5, "mean": 1.83333, "p50": 0.75, "p90": 7.3, "p99": 9.73, "p99_clamped": false, "buckets": [{"le": 1, "count": 2}, {"le": 10, "count": 1}, {"le": "inf", "count": 0}]}},
  "analytics": {
    "convergence": [{"tests": 64, "detected": 300}, {"tests": 128, "detected": 321}],
    "segment_yield": [
      {"sequence": 0, "segment": 0, "seed": 123, "tests": 100, "newly_detected": 42, "peak_swa": 12.5}
    ]
  },
  "jobs": {"workers": 4, "submitted": 100, "executed": 100, "steals": 7, "busy_ms": 120.000, "idle_ms": 280.000, "utilization": 0.3},
  "memory": {"peak_rss_bytes": 50331648, "current_rss_bytes": 33554432, "allocated_bytes": 6144, "allocation_count": 3, "footprints": {"flow.netlist": 4096}, "bytes_per_gate": 12.25, "bytes_per_fault": 3.5}
})",
    R"({"s": "tab\tquote\"slash\/back\\bell\u0007nul\u0000wideé", )"
    R"("n": [0, -0, 1.5, -2e-3, 1E+9, 1e308, 123456789012345678901234567890], )"
    R"("t": true, "f": false, "z": null, "e": {}, "a": [[], [{}], [[1]]]})",
};

// Fragments that steer mutants toward the parser's interesting paths:
// structure, literals, escapes, nesting past the depth limit, raw bytes.
constexpr std::string_view kTokens[] = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\u00", "\\uZZZZ",
    "\\u-001", "\\x", "true", "tru", "false", "null", "nul", "-", "+", ".",
    "e", "1e", "--1", "0x1p3", "\t", "\r\n", "\xff\xfe",
    std::string_view("\0", 1),
    "\"schema_version\":", "\"gauges\":{}", "\"phases\":[1]",
    "\"children\":\"x\"", "\"memory\":[]",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":{",
};

// Replacement numbers: zero, signs, fractions, exponents past double range,
// integers past every width, and forms JSON does not allow.
constexpr std::string_view kNumbers[] = {
    "0",     "-0",    "1",     "-1",   "0.5",  "1e308", "1e309", "-1e309",
    "1e-400", "4294967296", "18446744073709551616", "01", "1.", ".5",
    "1e",    "1e+",   "-",     "NaN",  "inf",  "1.2.3", "2e2e2", "0-1",
};

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '.' || c == 'e' ||
         c == 'E' || c == '+';
}

/// One random edit of `text`: flip a byte, insert a token, delete a span,
/// truncate, duplicate a span, or replace a number literal.
std::string mutate_once(const std::string& text, Pcg32& rng) {
  const auto pick = [&](auto& table) {
    return std::string(table[rng.below(std::size(table))]);
  };
  if (text.empty()) return pick(kTokens);
  const auto at = static_cast<std::size_t>(
      rng.below(static_cast<std::uint32_t>(text.size())));
  std::string out = text;
  switch (rng.below(6)) {
    case 0:
      out[at] = static_cast<char>(rng.below(256));
      break;
    case 1:
      out.insert(at, pick(kTokens));
      break;
    case 2:
      out.erase(at, 1 + rng.below(16));
      break;
    case 3:
      out.resize(at);
      break;
    case 4:
      out.insert(at, text.substr(at, 1 + rng.below(48)));
      break;
    default: {
      // The first digit run at or after `at` (wrapping), as a whole literal.
      std::size_t begin = text.find_first_of("0123456789", at);
      if (begin == std::string::npos) begin = text.find_first_of("0123456789");
      if (begin == std::string::npos) {
        out.insert(at, pick(kNumbers));
        break;
      }
      while (begin > 0 && is_number_char(text[begin - 1])) --begin;
      std::size_t end = begin;
      while (end < text.size() && is_number_char(text[end])) ++end;
      out.replace(begin, end - begin, pick(kNumbers));
      break;
    }
  }
  return out;
}

/// The byte offset a parse error names, or -1 when the message has none.
long error_offset(const std::string& error) {
  constexpr std::string_view kPrefix = "JSON parse error at byte ";
  if (error.rfind(kPrefix, 0) != 0) return -1;
  char* end = nullptr;
  const long offset = std::strtol(error.c_str() + kPrefix.size(), &end, 10);
  return *end == ':' ? offset : -1;
}

TEST(JsonFuzz, MutatedDocumentsParseOrReportAnError) {
  Pcg32 rng(0x150f022, 0x7e);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string_view seed : kSeedDocuments) {
    JsonValue seed_value;
    std::string error;
    ASSERT_TRUE(json_parse(std::string(seed), seed_value, error)) << error;
    for (int m = 0; m < kMutantsPerDocument; ++m) {
      std::string mutant(seed);
      const unsigned edits = 1 + rng.below(kMaxEditsPerMutant);
      for (unsigned e = 0; e < edits; ++e) mutant = mutate_once(mutant, rng);
      JsonValue value;
      bool ok = false;
      ASSERT_NO_THROW(ok = json_parse(mutant, value, error)) << mutant;
      if (!ok) {
        ++rejected;
        const long offset = error_offset(error);
        EXPECT_GE(offset, 0) << error << "\n" << mutant;
        EXPECT_LE(offset, static_cast<long>(mutant.size())) << mutant;
        continue;
      }
      ++accepted;
      EXPECT_TRUE(error.empty()) << mutant;
      // What fbt_report does with a file that parses: render it, and diff
      // it against a good report in either role.
      ASSERT_NO_THROW((void)render_html_dashboard(value, mutant)) << mutant;
      ASSERT_NO_THROW(
          (void)diff_run_reports(seed_value, value, DiffThresholds{}))
          << mutant;
      ASSERT_NO_THROW(
          (void)diff_run_reports(value, seed_value, DiffThresholds{}))
          << mutant;
    }
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonFuzz, DeepNestingIsAnErrorNotAStackOverflow) {
  // Arrays nest directly, objects through a key: [[[... and {"a":{"a":...
  for (const std::string_view open : {"[", "{\"a\":"}) {
    std::string text;
    for (int i = 0; i < 100000; ++i) text += open;
    JsonValue value;
    std::string error;
    EXPECT_FALSE(json_parse(text, value, error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace fbt::obs
