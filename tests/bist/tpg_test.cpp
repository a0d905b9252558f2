#include "bist/tpg.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "circuits/synth.hpp"

namespace fbt {
namespace {

TEST(Tpg, ShiftRegisterSizeFollowsTheFormula) {
  const Netlist nl = make_s27();
  const TpgConfig cfg{.lfsr_stages = 32, .bias_bits = 3};
  const Tpg tpg(nl, cfg);
  const std::size_t nsp = tpg.cube().specified_count();
  EXPECT_EQ(tpg.shift_register_size(),
            3 * nsp + (nl.num_inputs() - nsp));
  EXPECT_EQ(tpg.bias_gate_count(), nsp);
}

// Reseeding clocks the shift register full: one LFSR cycle per bit.
TEST(Tpg, ReseedCountsOneLfsrCyclePerShiftRegisterBit) {
#if FBT_OBS_ENABLED
  const Netlist nl = make_s27();
  const obs::Counter& cycles = obs::registry().counter("bist.lfsr_cycles");
  const std::uint64_t before = cycles.value();
  std::size_t size = 0;
  {
    Tpg tpg(nl, {});
    size = tpg.shift_register_size();
    tpg.reseed(42);
    tpg.reseed(43);
  }  // the Tpg's batched counter flushes here
  EXPECT_EQ(cycles.value() - before, 2 * size);
#endif
}

TEST(Tpg, DeterministicPerSeed) {
  const Netlist nl = make_s27();
  Tpg a(nl, {});
  Tpg b(nl, {});
  a.reseed(42);
  b.reseed(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_vector(), b.next_vector());
  }
  a.reseed(42);
  b.reseed(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a.next_vector() != b.next_vector()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// Property (Fig. 4.8): a specified input takes its cube value with
// probability about 1 - 1/2^m; an unspecified input is roughly balanced.
TEST(Tpg, BiasFollowsTheCube) {
  SynthParams p;
  p.name = "tpg_bias";
  p.num_inputs = 12;
  p.num_outputs = 6;
  p.num_flops = 20;
  p.num_gates = 260;
  p.seed = 15;
  const Netlist nl = generate_synthetic(p);
  const TpgConfig cfg{.lfsr_stages = 32, .bias_bits = 3};
  Tpg tpg(nl, cfg);
  tpg.reseed(777);
  const std::size_t trials = 30000;
  std::vector<std::size_t> ones(nl.num_inputs(), 0);
  for (std::size_t t = 0; t < trials; ++t) {
    const auto vec = tpg.next_vector();
    for (std::size_t i = 0; i < vec.size(); ++i) ones[i] += vec[i];
  }
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    const double p1 = static_cast<double>(ones[i]) / trials;
    switch (tpg.cube().values[i]) {
      case Val3::k0:
        EXPECT_NEAR(p1, 1.0 / 8.0, 0.03) << "input " << i;
        break;
      case Val3::k1:
        EXPECT_NEAR(p1, 7.0 / 8.0, 0.03) << "input " << i;
        break;
      case Val3::kX:
        EXPECT_NEAR(p1, 0.5, 0.05) << "input " << i;
        break;
    }
  }
}

TEST(Tpg, ReseedReinitializesTheShiftRegister) {
  const Netlist nl = make_s27();
  Tpg tpg(nl, {});
  tpg.reseed(5);
  std::vector<std::vector<std::uint8_t>> first;
  for (int i = 0; i < 20; ++i) first.push_back(tpg.next_vector());
  tpg.reseed(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tpg.next_vector(), first[i]) << "cycle " << i;
  }
}

}  // namespace
}  // namespace fbt
