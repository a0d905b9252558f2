// The compiled gate program (Netlist::program() run by sim/gate_program.hpp)
// against the per-type reference evaluators eval_gate2/eval_gate64: every
// node of every registry circuit and of a hand-built netlist that covers the
// corner cases (constants, one-input AND/NAND/XNOR, 5- and 9-input chains),
// on random blocks, at byte and 64-lane word width. Also pins that the
// simulators built on the program expose exactly netlist.size() values.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "sim/gate_program.hpp"
#include "sim/packed_seqsim.hpp"
#include "sim/seqsim.hpp"
#include "sim/value.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

/// Reference settle: eval_gate64 per node, constants then eval_order().
std::vector<std::uint64_t> reference64(const Netlist& nl,
                                       std::vector<std::uint64_t> values) {
  std::vector<std::uint64_t> fan;
  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      values[id] = eval_gate64(t, {});
    }
  }
  for (const NodeId id : nl.eval_order()) {
    fan.clear();
    for (const NodeId f : nl.fanins(id)) fan.push_back(values[f]);
    values[id] = eval_gate64(nl.type(id), fan);
  }
  return values;
}

/// Reference settle of one lane with eval_gate2.
std::vector<std::uint8_t> reference2(const Netlist& nl,
                                     std::vector<std::uint8_t> values) {
  std::vector<std::uint8_t> fan;
  for (NodeId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      values[id] = eval_gate2(t, {});
    }
  }
  for (const NodeId id : nl.eval_order()) {
    fan.clear();
    for (const NodeId f : nl.fanins(id)) fan.push_back(values[f]);
    values[id] = eval_gate2(nl.type(id), fan);
  }
  return values;
}

/// Random source block: every node gets a random word, so the program must
/// overwrite every non-source node it is responsible for.
std::vector<std::uint64_t> random_block(const Netlist& nl, Pcg32& rng) {
  std::vector<std::uint64_t> words(nl.size());
  for (auto& w : words) w = rng.next64();
  return words;
}

void expect_program_matches_reference(const Netlist& nl, Pcg32& rng,
                                      int blocks) {
  for (const GateOp& op : nl.program()) {
    ASSERT_LT(op.out, nl.size()) << nl.name();
    ASSERT_LT(op.a, nl.size()) << nl.name();
    ASSERT_LT(op.b, nl.size()) << nl.name();
    ASSERT_LT(op.tt, 16u) << nl.name();
  }
  for (int block = 0; block < blocks; ++block) {
    const std::vector<std::uint64_t> sources = random_block(nl, rng);
    const std::vector<std::uint64_t> expect = reference64(nl, sources);
    std::vector<std::uint64_t> got = sources;
    run_program(nl.program(), got.data());
    for (NodeId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(got[id], expect[id])
          << nl.name() << " block " << block << " node " << nl.node_name(id);
    }
    for (const unsigned lane : {0u, 29u, 63u}) {
      std::vector<std::uint8_t> bytes(nl.size());
      for (NodeId id = 0; id < nl.size(); ++id) {
        bytes[id] = static_cast<std::uint8_t>((sources[id] >> lane) & 1);
      }
      const std::vector<std::uint8_t> expect2 = reference2(nl, bytes);
      run_program(nl.program(), bytes.data());
      for (NodeId id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(bytes[id], expect2[id]) << nl.name() << " block " << block
                                          << " lane " << lane << " node "
                                          << nl.node_name(id);
        ASSERT_EQ(bytes[id], (expect[id] >> lane) & 1) << nl.name();
      }
    }
  }
}

/// Every corner of the compiler: constants, BUF/NOT, one-input AND, NAND
/// and XNOR, and 5- and 9-input NAND/NOR/XNOR chains, all observable and
/// feeding a flop so the sequential simulators can step it.
Netlist make_corner_netlist() {
  Netlist nl("gate_program_corners");
  std::vector<NodeId> in;
  for (int i = 0; i < 9; ++i) {
    in.push_back(nl.add_input(std::string(1, static_cast<char>('a' + i))));
  }
  const NodeId q = nl.add_dff("q");
  const NodeId c0 = nl.add_gate(GateType::kConst0, "c0", {});
  const NodeId c1 = nl.add_gate(GateType::kConst1, "c1", {});
  std::vector<NodeId> gates = {
      nl.add_gate(GateType::kBuf, "buf", {in[0]}),
      nl.add_gate(GateType::kNot, "not", {q}),
      nl.add_gate(GateType::kAnd, "and1", {in[1]}),
      nl.add_gate(GateType::kNand, "nand1", {in[2]}),
      nl.add_gate(GateType::kXnor, "xnor1", {in[3]}),
      nl.add_gate(GateType::kAnd, "and_c", {c1, in[4]}),
      nl.add_gate(GateType::kOr, "or_c", {c0, in[5]}),
  };
  const std::span<const NodeId> five(in.data(), 5);
  gates.push_back(nl.add_gate(GateType::kNand, "nand5", five));
  gates.push_back(nl.add_gate(GateType::kNor, "nor5", five));
  gates.push_back(nl.add_gate(GateType::kXnor, "xnor5", five));
  gates.push_back(nl.add_gate(GateType::kNand, "nand9", in));
  gates.push_back(nl.add_gate(GateType::kNor, "nor9", in));
  gates.push_back(nl.add_gate(GateType::kXnor, "xnor9", in));
  // A wide gate over wide gates, with a repeated fanin.
  gates.push_back(nl.add_gate(
      GateType::kXor, "mix", {gates[7], gates[8], gates[9], gates[7], q}));
  for (const NodeId g : gates) nl.mark_output(g);
  nl.mark_output(c0);
  nl.mark_output(c1);
  nl.set_dff_input(q, gates.back());
  nl.finalize();
  return nl;
}

TEST(GateProgram, MatchesEvalGateOnEveryRegistryCircuit) {
  Pcg32 rng(0x9a7e, 0x1d);
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    expect_program_matches_reference(nl, rng, 2);
  }
}

TEST(GateProgram, MatchesEvalGateOnCornerGates) {
  const Netlist nl = make_corner_netlist();
  // Two constants, one op per gate of at most two fanins, and k - 1 ops per
  // k-input chain: 2 + 7 + 3 * 4 + 3 * 8 + 4.
  EXPECT_EQ(nl.program().size(), 2u + 7u + 12u + 24u + 4u);
  Pcg32 rng(0xc0ffee, 0x2);
  expect_program_matches_reference(nl, rng, 16);
}

TEST(GateProgram, SimulatorsExposeExactlyTheNetlistNodes) {
  const Netlist nl = make_corner_netlist();
  Pcg32 rng(0x51, 0x7);
  SeqSim seq(nl);
  seq.load_reset_state();
  PackedSeqSim packed(nl);
  packed.load_reset_state();
  std::vector<std::uint8_t> pi(nl.num_inputs());
  std::vector<std::uint64_t> pi_words(nl.num_inputs());
  std::array<std::uint32_t, PackedSeqSim::kLanes> toggles{};
  std::vector<std::uint64_t> prev_words(nl.size(), 0);
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (auto& v : pi) v = rng.chance(1, 2) ? 1 : 0;
    for (auto& w : pi_words) w = rng.next64();
    const SeqStep step = seq.step(pi);
    packed.step(pi_words, toggles);

    ASSERT_EQ(seq.values().size(), nl.size());
    ASSERT_EQ(seq.prev_values().size(), nl.size());
    const SeqSim::Snapshot snap = seq.snapshot();
    EXPECT_EQ(snap.values.size(), nl.size());
    EXPECT_EQ(snap.prev_values.size(), nl.size());
    EXPECT_EQ(snap.state.size(), nl.num_flops());
    // SWA counts toggles over exactly the netlist's nodes.
    std::size_t toggled = 0;
    for (NodeId id = 0; id < nl.size(); ++id) {
      toggled += seq.values()[id] != seq.prev_values()[id] ? 1 : 0;
    }
    EXPECT_EQ(step.toggled_lines, cycle == 0 ? 0u : toggled);
    EXPECT_EQ(packed.num_lines(), nl.size());
    for (unsigned k = 0; k < PackedSeqSim::kLanes; ++k) {
      std::uint32_t lane_toggles = 0;
      for (NodeId id = 0; id < nl.size(); ++id) {
        lane_toggles += static_cast<std::uint32_t>(
            ((packed.value(id) ^ prev_words[id]) >> k) & 1);
      }
      EXPECT_EQ(toggles[k], cycle == 0 ? 0u : lane_toggles) << "lane " << k;
    }
    for (NodeId id = 0; id < nl.size(); ++id) prev_words[id] = packed.value(id);
    EXPECT_EQ(seq.value(nl.find("c1")), 1);
    EXPECT_EQ(packed.value(nl.find("c1")), ~0ULL);
    EXPECT_EQ(packed.value(nl.find("c0")), 0ULL);
  }
}

}  // namespace
}  // namespace fbt
