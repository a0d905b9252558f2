// Seeded mutational fuzzer for parse_bench: mutates the write_bench text of
// every registry circuit with byte, token and line edits and feeds each
// mutant to the parser. The only exception allowed out is fbt::Error. A
// mutant that parses must come back finalized, and its compiled gate
// program must agree with eval_gate64 on one random block. The budget is a
// fixed mutant count per circuit, so a run is deterministic; the ctest entry
// runs under label `fuzz`.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "circuits/registry.hpp"
#include "netlist/bench_io.hpp"
#include "sim/gate_program.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

constexpr int kMutantsPerCircuit = 12;
constexpr int kMaxEditsPerMutant = 4;

// Fragments that steer mutants toward the parser's interesting paths.
constexpr std::string_view kTokens[] = {
    "(",    ")",     ",",     "=",       "#",      "\n",     " ",
    "DFF",  "NAND",  "XNOR",  "CONST0",  "CONST1", "INPUT",  "OUTPUT",
    "BUFF", "INV",   "AND()", "x = OR(", "G0",     "\xff\xfe", "()",
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
/// duplicate, drop or swap whole lines, or truncate.
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

/// The program of a parsed mutant against eval_gate64 on one random block.
void expect_program_agrees(const Netlist& nl, Pcg32& rng) {
  std::vector<std::uint64_t> got(nl.size());
  for (auto& w : got) w = rng.next64();
  std::vector<std::uint64_t> expect = got;
  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      expect[id] = eval_gate64(t, {});
    }
  }
  std::vector<std::uint64_t> fan;
  for (const NodeId id : nl.eval_order()) {
    fan.clear();
    for (const NodeId f : nl.fanins(id)) fan.push_back(expect[f]);
    expect[id] = eval_gate64(nl.type(id), fan);
  }
  run_program(nl.program(), got.data());
  for (NodeId id = 0; id < nl.size(); ++id) {
    ASSERT_EQ(got[id], expect[id]) << nl.name() << " node " << id;
  }
}

TEST(BenchFuzz, MutatedRegistryTextsParseOrThrowFbtError) {
  Pcg32 rng(0xf022, 0xbe);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const std::string text = write_bench(load_benchmark(spec.name));
    for (int m = 0; m < kMutantsPerCircuit; ++m) {
      std::string mutant = text;
      const unsigned edits = 1 + rng.below(kMaxEditsPerMutant);
      for (unsigned e = 0; e < edits; ++e) mutant = mutate_once(mutant, rng);
      try {
        const Netlist nl = parse_bench(mutant, spec.name + "_fuzz");
        ASSERT_TRUE(nl.finalized()) << spec.name << " mutant " << m;
        expect_program_agrees(nl, rng);
        ++parsed;
      } catch (const Error&) {
        ++rejected;  // the one allowed way to refuse a text
      }
    }
  }
  RecordProperty("parsed", static_cast<int>(parsed));
  RecordProperty("rejected", static_cast<int>(rejected));
  // Both outcomes must be exercised, or the mutator is not doing its job.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fbt
