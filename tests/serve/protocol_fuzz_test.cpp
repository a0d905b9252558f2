// Seeded mutational fuzzer for parse_request: mutates the request lines a
// serve_sweep client and an embedded-block client send with byte, token and
// number edits and feeds each mutant to the parser. No exception may leave
// it: every mutant comes back as a request or as an error message. Every
// experiment config it accepts must pass check_config, and every line it
// rejects must make the daemon answer with exactly one error line and keep
// serving. The budget is a fixed mutant count per seed line, so a run is
// deterministic; the ctest entry runs under label `fuzz`.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "jobs/job_system.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace fbt::serve {
namespace {

constexpr int kMutantsPerLine = 5000;
constexpr int kMaxEditsPerMutant = 4;

// A serve_sweep request (the flow_smoke config) and an embedded-block one
// (spi behind wb_dma, L = 100, RTL emitted).
constexpr std::string_view kSeedLines[] = {
    R"({"type":"experiment","id":"r0","target":"s298","driver":"buffers",)"
    R"("stream_progress":false,"config":{"cal_sequences":4,"cal_length":400,)"
    R"("segment_length":200,"max_segment_failures":2,)"
    R"("max_sequence_failures":2,"rng_seed":2147483647}})",
    R"({"type":"experiment","id":"e0","target":"spi","driver":"wb_dma",)"
    R"("stream_progress":false,"config":{"cal_sequences":4,"cal_length":400,)"
    R"("segment_length":100,"max_segment_failures":2,)"
    R"("max_sequence_failures":2,"rng_seed":2147483648,"emit_rtl":true,)"
    R"("num_threads":1,"rtl_misr_stages":16}})",
};

// Fragments that steer mutants toward the parser's interesting paths:
// JSON structure, request types and the capped config fields.
constexpr std::string_view kTokens[] = {
    "{",  "}",  "[",  "]",  ",",  ":",  "\"", "\\", "\\u0000", "null",
    "true", "false", "\"ping\"", "\"stats\"", "\"shutdown\"",
    "\"type\":\"experiment\",", "\"num_threads\":", "\"segment_length\":",
    "\"cal_length\":", "\"tpg_lfsr_stages\":", "\"tpg_bias_bits\":",
    "\"config\":{}", "\"netlist_bench\":\"INPUT(a)\\n\"", "\xff\xfe",
};

// Replacement numbers: zero, negatives, fractions, the caps and one past
// them, integer-width edges, and values no integer holds.
constexpr std::string_view kNumbers[] = {
    "0",          "1",          "-1",         "2",
    "3",          "0.5",        "64",         "65",
    "4096",       "4097",       "1048576",    "1048577",
    "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616",     "1e300",      "-1e300",
    "1e999",      "NaN",        "-0",         "100000000",
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
      out.insert(at, text.substr(at, 1 + rng.below(24)));
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

TEST(ProtocolFuzz, MutatedRequestLinesParseOrReportAnError) {
  jobs::JobSystem jobs(1);
  ArtifactCache cache;
  ExperimentService service(jobs, cache);
  Pcg32 rng(0xf022, 0x5e);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string_view seed : kSeedLines) {
    for (int m = 0; m < kMutantsPerLine; ++m) {
      std::string mutant(seed);
      const unsigned edits = 1 + rng.below(kMaxEditsPerMutant);
      for (unsigned e = 0; e < edits; ++e) mutant = mutate_once(mutant, rng);
      Request request;
      std::string error;
      bool ok = false;
      ASSERT_NO_THROW(ok = parse_request(mutant, request, error)) << mutant;
      if (ok) {
        ++accepted;
        if (request.type == RequestType::kExperiment) {
          EXPECT_EQ(check_config(request.experiment.config), "") << mutant;
        }
        continue;
      }
      ++rejected;
      EXPECT_FALSE(error.empty()) << mutant;
      // The daemon answers a rejected line with one error line and serves
      // on.
      std::vector<std::string> lines;
      const bool keep_serving = service.handle_line(
          mutant, [&lines](const std::string& l) { lines.push_back(l); });
      EXPECT_TRUE(keep_serving) << mutant;
      ASSERT_EQ(lines.size(), 1u) << mutant;
      EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos)
          << mutant;
    }
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fbt::serve
