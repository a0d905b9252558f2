// The cone-local input cube (bist/input_cube.hpp) against its definition:
// one whole-circuit three-valued simulation per input value
// (oracles/cubesim.hpp), on every registry circuit, on seeded synthetic
// netlists, and on hand-built netlists whose answer is known.
#include "bist/input_cube.hpp"

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "circuits/synth.hpp"
#include "oracles/cubesim.hpp"

namespace fbt {
namespace {

void expect_matches_oracle(const Netlist& nl) {
  const InputCube cube = compute_input_cube(nl);
  const InputCube reference = reference_input_cube(nl);
  ASSERT_EQ(cube.values.size(), reference.values.size()) << nl.name();
  for (std::size_t i = 0; i < cube.values.size(); ++i) {
    EXPECT_EQ(cube.values[i], reference.values[i])
        << nl.name() << " input " << nl.node_name(nl.inputs()[i]);
  }
}

TEST(InputCube, BuffersBlockHasNoSpecifiedInputs) {
  const Netlist nl = make_buffers_block(8);
  const InputCube cube = compute_input_cube(nl);
  EXPECT_EQ(cube.specified_count(), 0u);  // no state variables to synchronize
}

TEST(InputCube, S27FavoursTheLessSynchronizingValue) {
  const Netlist nl = make_s27();
  // G0 = 0 synchronizes G10 (via G14 = 1); G0 = 1 synchronizes nothing.
  // So 1 synchronizes fewer state variables and C(G0) = 1.
  EXPECT_EQ(reference_input_cube(nl).values[0], Val3::k1);
  EXPECT_EQ(compute_input_cube(nl).values[0], Val3::k1);
  expect_matches_oracle(nl);
}

TEST(InputCube, EveryRegistryCircuitMatchesTheOracle) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    expect_matches_oracle(load_benchmark(spec.name));
  }
}

TEST(InputCube, SeededSyntheticNetlistsMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SynthParams p;
    p.name = "cube" + std::to_string(seed);
    p.num_inputs = 3 + seed % 9;
    p.num_outputs = 2 + seed % 5;
    p.num_flops = 4 + (seed * 7) % 23;
    p.num_gates = 30 + seed * 17;
    p.parity_percent = static_cast<unsigned>((seed * 11) % 40);
    p.seed = seed;
    expect_matches_oracle(generate_synthetic(p));
  }
}

// Constants are sources that the three-valued frame never evaluates, so they
// stay X: AND(a, CONST0) is 0 only when a = 0, and OR(b, CONST1) is 1 only
// when b = 1. Evaluating the constants would make both gates binary for
// either value and leave both inputs unspecified.
TEST(InputCube, ConstantsStayUnknown) {
  Netlist nl("consts");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId zero = nl.add_gate(GateType::kConst0, "zero", {});
  const NodeId one = nl.add_gate(GateType::kConst1, "one", {});
  const NodeId and_a = nl.add_gate(GateType::kAnd, "and_a", {a, zero});
  const NodeId or_b = nl.add_gate(GateType::kOr, "or_b", {b, one});
  const NodeId nand_c = nl.add_gate(GateType::kNand, "nand_c", {c, one});
  const NodeId fa = nl.add_dff("fa");
  const NodeId fb = nl.add_dff("fb");
  const NodeId fc = nl.add_dff("fc");
  const NodeId fz = nl.add_dff("fz");
  nl.set_dff_input(fa, and_a);
  nl.set_dff_input(fb, or_b);
  nl.set_dff_input(fc, nand_c);
  nl.set_dff_input(fz, zero);  // a constant D input is never synchronized
  nl.mark_output(and_a);
  nl.finalize();

  const InputCube cube = compute_input_cube(nl);
  EXPECT_EQ(cube.values[0], Val3::k1);  // a = 0 synchronizes fa
  EXPECT_EQ(cube.values[1], Val3::k0);  // b = 1 synchronizes fb
  EXPECT_EQ(cube.values[2], Val3::k1);  // c = 0 synchronizes fc
  expect_matches_oracle(nl);
}

// A node feeding several flip-flops counts once per flip-flop, an input may
// drive a D input directly, and a gate an input reaches through two fanins
// counts once.
TEST(InputCube, CountsEveryFlipFlopAValueFeeds) {
  Netlist nl("fanout");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_dff("s");
  const NodeId n = nl.add_gate(GateType::kNand, "n", {a, s});
  const NodeId g = nl.add_gate(GateType::kAnd, "g", {b, b, s});
  const NodeId o = nl.add_gate(GateType::kOr, "o", {b, s});
  const NodeId f1 = nl.add_dff("f1");
  const NodeId f2 = nl.add_dff("f2");
  const NodeId f3 = nl.add_dff("f3");
  const NodeId f4 = nl.add_dff("f4");
  nl.set_dff_input(s, a);
  nl.set_dff_input(f1, n);
  nl.set_dff_input(f2, n);
  nl.set_dff_input(f3, o);
  nl.set_dff_input(f4, g);
  nl.mark_output(g);
  nl.finalize();

  // a = 0 makes s's D input and n (feeding f1 and f2) binary: 3 flip-flops;
  // a = 1 only s's D input. b = 0 makes g binary and b = 1 makes o binary,
  // one flip-flop each, so C(b) is X (counting g twice would make it 1).
  const InputCube cube = compute_input_cube(nl);
  EXPECT_EQ(cube.values[0], Val3::k1);
  EXPECT_EQ(cube.values[1], Val3::kX);
  expect_matches_oracle(nl);
}

}  // namespace
}  // namespace fbt
