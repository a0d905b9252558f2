// Property: circuit-level three-valued simulation is a sound abstraction of
// two-valued simulation -- every binary value CubeSim derives from a partial
// source cube holds in all completions.
#include <gtest/gtest.h>

#include "circuits/synth.hpp"
#include "oracles/cubesim.hpp"
#include "sim/bitsim.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

class CubeSimProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CubeSimProperty, BinaryOutcomesHoldInAllCompletions) {
  SynthParams p;
  p.name = "cubeprop" + std::to_string(GetParam());
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flops = 3;
  p.num_gates = 40;
  p.seed = GetParam();
  const Netlist nl = generate_synthetic(p);
  Pcg32 rng(GetParam() + 1);

  std::vector<NodeId> sources;
  for (const NodeId pi : nl.inputs()) sources.push_back(pi);
  for (const NodeId ff : nl.flops()) sources.push_back(ff);
  ASSERT_LE(sources.size(), 16u);

  for (int trial = 0; trial < 25; ++trial) {
    // Partial cube over the sources.
    CubeSim cube(nl);
    cube.clear();
    std::uint32_t fixed_mask = 0;
    std::uint32_t fixed_bits = 0;
    for (std::size_t k = 0; k < sources.size(); ++k) {
      if (!rng.chance(1, 2)) continue;
      const bool value = rng.chance(1, 2);
      fixed_mask |= 1u << k;
      if (value) fixed_bits |= 1u << k;
      cube.set_value(sources[k], value ? Val3::k1 : Val3::k0);
    }
    cube.eval();

    // Pack all completions of the free sources into 64-bit lanes (chunks).
    const std::uint32_t total = 1u << sources.size();
    for (std::uint32_t base = 0; base < total; base += 64) {
      BitSim bits(nl);
      for (std::size_t k = 0; k < sources.size(); ++k) {
        std::uint64_t word = 0;
        for (std::uint32_t lane = 0; lane < 64 && base + lane < total;
             ++lane) {
          const std::uint32_t assignment = base + lane;
          const bool value = (fixed_mask >> k) & 1
                                 ? ((fixed_bits >> k) & 1) != 0
                                 : ((assignment >> k) & 1) != 0;
          if (value) word |= 1ULL << lane;
        }
        bits.set_value(sources[k], word);
      }
      bits.eval();
      const std::uint64_t valid =
          base + 64 <= total ? ~0ULL : ((1ULL << (total - base)) - 1);
      for (NodeId id = 0; id < nl.size(); ++id) {
        const Val3 v = cube.value(id);
        if (v == Val3::kX) continue;
        const std::uint64_t expected = v == Val3::k1 ? valid : 0;
        EXPECT_EQ(bits.value(id) & valid, expected)
            << "node " << nl.gate(id).name << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeSimProperty,
                         ::testing::Values(10u, 20u, 30u, 40u));

}  // namespace
}  // namespace fbt
