// Seeded mutational fuzzer for elaborate_verilog: mutates the emitted Verilog
// of small registry circuits (the flat write_verilog text of s27 and s298,
// and the hierarchical BIST RTL of s27) with byte, token and line edits and
// elaborates each mutant. The only exception allowed out is fbt::Error. A
// mutant that elaborates must build an RtlSim that steps once. The budget is
// a fixed mutant count per text, so a run is deterministic; the ctest entry
// runs under label `fuzz`.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "circuits/registry.hpp"
#include "netlist/export.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/emit.hpp"
#include "rtl_test_util.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

constexpr int kMutantsPerText = 300;
constexpr int kMaxEditsPerMutant = 4;

// Fragments that steer mutants toward the elaborator's interesting paths:
// structure, declarations, primitives, instances and constants.
constexpr std::string_view kTokens[] = {
    "(",       ")",        ",",        ";",      ".",        "\n",
    " ",       "module ",  "endmodule\n", "input ", "output ", "wire ",
    "assign ", " = ",      "1'b0",     "1'b1",   "and ",     "not ",
    "xnor ",   "fbt_dff ", ".d(",      ".q(",    "u_x (",    "//",
    "\xff\xfe", "()",
};

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// One random edit of `text`: flip a byte, insert a token, delete a span,
/// truncate, or duplicate, drop or swap whole lines (which moves instances
/// and declarations between modules).
std::string mutate_once(const std::string& text, Pcg32& rng) {
  const auto token = [&] { return kTokens[rng.below(std::size(kTokens))]; };
  if (text.empty()) return std::string(token());
  const auto at = static_cast<std::size_t>(
      rng.below(static_cast<std::uint32_t>(text.size())));
  std::string out = text;
  switch (rng.below(7)) {
    case 0:
      out[at] = static_cast<char>(rng.below(256));
      break;
    case 1:
      out.insert(at, token());
      break;
    case 2:
      out.erase(at, 1 + rng.below(16));
      break;
    case 3:
      out.resize(at);
      break;
    default: {
      std::vector<std::string_view> lines = split_lines(text);
      if (lines.empty()) break;
      const auto pick = [&] {
        return static_cast<std::size_t>(
            rng.below(static_cast<std::uint32_t>(lines.size())));
      };
      const std::size_t i = pick();
      const std::size_t j = pick();
      const auto line_at = lines.begin() + static_cast<std::ptrdiff_t>(i);
      switch (rng.below(3)) {
        case 0: lines.insert(line_at, lines[j]); break;
        case 1: lines.erase(line_at); break;
        default: std::swap(lines[i], lines[j]); break;
      }
      out.clear();
      for (const std::string_view l : lines) {
        out.append(l);
        out.push_back('\n');
      }
      break;
    }
  }
  return out;
}

struct SeedText {
  std::string text;
  std::string top;
};

std::vector<SeedText> seed_texts() {
  std::vector<SeedText> seeds;
  for (const char* name : {"s27", "s298"}) {
    const Netlist cut = load_benchmark(name);
    seeds.push_back({write_verilog(cut), verilog_names(cut).module_name});
  }
  const Netlist s27 = load_benchmark("s27");
  const ScanChains scan(s27, rtltest::dividing_scan_config(s27.num_flops()));
  const EmittedRtl rtl = emit_bist_rtl(
      s27, rtltest::make_plan({{{0xACE1u, 4}, {0x99u, 2}}, {{0x51u, 2}}}),
      scan, rtltest::small_session_config());
  seeds.push_back({rtl.verilog, rtl.top_name});
  return seeds;
}

TEST(ElaborateFuzz, MutatedEmittedVerilogElaboratesOrThrowsFbtError) {
  Pcg32 rng(0xe1ab, 0x0f);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const SeedText& seed : seed_texts()) {
    const RtlDesign original = elaborate_verilog(seed.text, seed.top);
    RtlSim(original).step();
    for (int m = 0; m < kMutantsPerText; ++m) {
      std::string mutant = seed.text;
      const unsigned edits = 1 + rng.below(kMaxEditsPerMutant);
      for (unsigned e = 0; e < edits; ++e) mutant = mutate_once(mutant, rng);
      try {
        const RtlDesign design = elaborate_verilog(mutant, seed.top);
        RtlSim(design).step();
        ++accepted;
      } catch (const Error&) {
        ++rejected;  // the one allowed way to refuse a text
      }
    }
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fbt
