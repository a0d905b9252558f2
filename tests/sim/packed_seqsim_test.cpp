// PackedSeqSim vs 64 independent scalar SeqSims: lockstep equivalence of
// settled values, flip-flop state, and per-lane switching activity. The
// Harley-Seal lane count is also checked alone, against a per-lane
// popcount, on synthetic words.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "circuits/registry.hpp"
#include "sim/packed_seqsim.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

constexpr std::size_t kLanes = PackedSeqSim::kLanes;

/// Steps the packed sim and 64 scalar sims from reset with independent
/// random input vectors for `cycles` cycles and compares everything per lane
/// per cycle.
void run_lockstep(const Netlist& nl, std::size_t cycles) {
  std::vector<SeqSim> scalars(kLanes, SeqSim(nl));
  PackedSeqSim packed(nl);
  Pcg32 rng(0xfeedULL, 0x5eedULL);
  for (auto& s : scalars) s.load_reset_state();
  packed.load_reset_state();

  std::vector<std::uint64_t> pi_words(nl.num_inputs());
  std::array<std::uint32_t, kLanes> toggles{};
  std::vector<std::uint8_t> vec(nl.num_inputs());

  for (std::size_t c = 0; c < cycles; ++c) {
    for (auto& w : pi_words) w = rng.next64();
    packed.step(pi_words, toggles);
    for (std::size_t k = 0; k < kLanes; ++k) {
      for (std::size_t i = 0; i < vec.size(); ++i) {
        vec[i] = (pi_words[i] >> k) & 1;
      }
      const SeqStep step = scalars[k].step(vec);
      ASSERT_EQ(step.toggled_lines, toggles[k])
          << "lane " << k << " cycle " << c;
      for (NodeId id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(scalars[k].value(id), (packed.value(id) >> k) & 1)
            << "node " << id << " lane " << k << " cycle " << c;
      }
      const std::span<const std::uint64_t> state = packed.state_words();
      for (std::size_t f = 0; f < nl.num_flops(); ++f) {
        ASSERT_EQ(scalars[k].state()[f], (state[f] >> k) & 1)
            << "flop " << f << " lane " << k << " cycle " << c;
      }
    }
  }
}

TEST(PackedSeqSim, MatchesScalarLanesFromReset) {
  run_lockstep(load_benchmark("s298"), 20);
}

TEST(PackedSeqSim, RealNetlistMatchesScalarLanes) {
  // s27 is the one genuine (parsed, not synthetic) netlist in the registry.
  run_lockstep(load_benchmark("s27"), 30);
}

TEST(PackedSeqSim, FirstStepAfterColdLoadMeasuresNoActivity) {
  const Netlist nl = load_benchmark("s298");
  PackedSeqSim packed(nl);
  packed.load_reset_state();
  std::vector<std::uint64_t> pi_words(nl.num_inputs(), ~0ULL);
  std::array<std::uint32_t, kLanes> toggles{};
  packed.step(pi_words, toggles);
  for (std::size_t k = 0; k < kLanes; ++k) EXPECT_EQ(toggles[k], 0u);
  // The second step measures against the first's settled values.
  std::fill(pi_words.begin(), pi_words.end(), 0ULL);
  packed.step(pi_words, toggles);
  std::uint32_t total = 0;
  for (std::size_t k = 0; k < kLanes; ++k) total += toggles[k];
  EXPECT_GT(total, 0u);
}

/// Per-lane popcount of cur[i] ^ prev[i], one bit at a time.
std::array<std::uint32_t, kLanes> reference_lane_counts(
    const std::vector<std::uint64_t>& cur,
    const std::vector<std::uint64_t>& prev) {
  std::array<std::uint32_t, kLanes> counts{};
  for (std::size_t i = 0; i < cur.size(); ++i) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      counts[k] += static_cast<std::uint32_t>(((cur[i] ^ prev[i]) >> k) & 1);
    }
  }
  return counts;
}

/// Word counts that cover every partial last block (0..70) and both sides
/// of each power of two up to 4097, where the top bit plane turns over.
std::vector<std::size_t> lane_count_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  for (std::size_t p = 128; p <= 4096; p *= 2) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  return sizes;
}

TEST(LaneTransitionCounts, AllOnesAgainstAllZerosCountsEveryWordInEveryLane) {
  for (const std::size_t n : lane_count_sizes()) {
    const std::vector<std::uint64_t> ones(n, ~0ULL), zeros(n, 0ULL);
    std::array<std::uint32_t, kLanes> counts;
    counts.fill(0xdeadu);  // the kernel overwrites, not accumulates
    lane_transition_counts(ones, zeros, counts);
    for (std::size_t k = 0; k < kLanes; ++k) {
      ASSERT_EQ(counts[k], n) << "n " << n << " lane " << k;
    }
  }
}

TEST(LaneTransitionCounts, MatchesPerLanePopcountOnRandomWords) {
  Pcg32 rng(0x1a2eULL, 0xc0u);
  for (const std::size_t n : lane_count_sizes()) {
    std::vector<std::uint64_t> cur(n), prev(n);
    for (std::size_t i = 0; i < n; ++i) {
      cur[i] = rng.next64();
      // Mix dense, sparse and equal words so lanes reach different counts.
      prev[i] = i % 3 == 0 ? cur[i] : i % 3 == 1 ? ~cur[i] : rng.next64();
    }
    std::array<std::uint32_t, kLanes> counts{};
    lane_transition_counts(cur, prev, counts);
    ASSERT_EQ(counts, reference_lane_counts(cur, prev)) << "n " << n;
  }
}

TEST(PackedSeqSim, StepWithoutTogglesAdvancesExactlyLikeACountingStep) {
  const Netlist nl = load_benchmark("s344");
  PackedSeqSim counting(nl), silent(nl);
  counting.load_reset_state();
  silent.load_reset_state();
  Pcg32 rng(0x5111ULL, 0x3ULL);
  std::vector<std::uint64_t> pi_words(nl.num_inputs());
  std::array<std::uint32_t, kLanes> toggles{};
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (auto& w : pi_words) w = rng.next64();
    counting.step(pi_words, toggles);
    silent.step(pi_words, {});
    ASSERT_EQ(silent.have_prev(), counting.have_prev());
    ASSERT_TRUE(std::ranges::equal(silent.values(), counting.values()))
        << "cycle " << cycle;
    ASSERT_TRUE(std::ranges::equal(silent.prev_values(),
                                   counting.prev_values()))
        << "cycle " << cycle;
    ASSERT_TRUE(std::ranges::equal(silent.state_words(),
                                   counting.state_words()))
        << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace fbt
