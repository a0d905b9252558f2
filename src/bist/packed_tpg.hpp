// Lane-sliced test pattern generator: 64 independent TPG instances
// (LFSR + shift register + biasing gates, dissertation §4.3, Fig. 4.8)
// clocked in lockstep, producing packed primary-input words.
//
// Bit-sliced representation: for every LFSR stage and every shift-register
// position there is one 64-bit word whose bit k is lane k's value of that
// flip-flop. A step is then a handful of word XOR/moves instead of 64 scalar
// LFSR steps, and the biased input taps reduce to word AND/OR over the same
// tap positions the scalar Tpg uses. Each lane reproduces a scalar Tpg
// reseeded with that lane's seed, bit for bit.
//
// SWA_func calibration (bist/embedded.hpp) drives its driver PackedSeqSim
// from it, one lane per calibration sequence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bist/tpg.hpp"
#include "obs/metrics.hpp"

namespace fbt {

class PackedTpg {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Shares the scalar Tpg's cube, tap allocation, and LFSR polynomial.
  /// `tpg` must outlive this object.
  explicit PackedTpg(const Tpg& tpg);

  /// Loads one LFSR seed per lane (1..64 seeds; remaining lanes get seed 1)
  /// and clocks every shift register full, exactly like Tpg::reseed.
  void reseed(std::span<const std::uint32_t> seeds);

  /// Advances one clock and writes the packed primary-input words (bit k of
  /// `pi_words[i]` = lane k's value of input i). Size must equal the input
  /// count.
  void next_vectors(std::span<std::uint64_t> pi_words);

 private:
  void clock_shift_register();

  const Tpg* tpg_;
  unsigned stages_;
  std::uint32_t taps_mask_;
  std::vector<std::uint64_t> lfsr_;  ///< bit-sliced LFSR stages (Q1 first)
  std::vector<std::uint64_t> sr_;    ///< bit-sliced shift register
  // Batched per-clock counters; see the Tpg members of the same shape.
  obs::LocalCounter lfsr_cycles_{"bist.packed_lfsr_cycles"};
  obs::LocalCounter vectors_generated_{"bist.packed_tpg_vectors_generated"};
};

}  // namespace fbt
