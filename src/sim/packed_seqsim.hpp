// 64-way bit-packed sequential simulator with per-lane switching activity.
//
// Advances up to 64 *independent* sequential trajectories per pass: bit k of
// every node word belongs to lane k. All lanes start from the reset state
// but diverge immediately because each lane receives its own primary-input
// bits, and flip-flop updates are per-bit.
//
// SWA_func calibration (bist/embedded.hpp) runs its independent functional
// sequences through it, one sequence per lane: a driver PackedSeqSim feeds
// a target PackedSeqSim. It is pinned lane for lane against the scalar
// SeqSim. (The candidate-seed search does not use it: with R = Q = 2 a
// 64-lane pass costs more than the few candidates it could supply. See
// DESIGN.md, "Why the seed search is sequential".)
//
// Per-lane switching activity is computed without a 64x popcount scan: the
// per-node transition words t = prev XOR cur go through a Harley-Seal
// carry-save-adder tree 16 words at a time (lane_transition_counts), so
// one pass over the nodes yields every lane's toggle count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"

namespace fbt {

/// Positional popcount of the transition words: `counts[k]` becomes the
/// number of indices i with bit k of `cur[i] ^ prev[i]` set. Harley-Seal
/// carry-save adders reduce each block of 16 words to ones/twos/fours/
/// eights/sixteens words; only `sixteens` ripples into the count bit planes
/// (Klarqvist, Mula and Lemire, "Efficient Computation of Positional
/// Population Counts Using SIMD Instructions", arXiv:1911.02696).
void lane_transition_counts(std::span<const std::uint64_t> cur,
                            std::span<const std::uint64_t> prev,
                            std::span<std::uint32_t, 64> counts);

class PackedSeqSim {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit PackedSeqSim(const Netlist& netlist);

  /// Loads the all-0 reset state into every lane and clears the SWA
  /// history (mirrors SeqSim::load_reset_state: the first step after it
  /// measures no switching activity).
  void load_reset_state();

  /// Applies one packed primary-input cycle (`pi_words[i]` carries bit k =
  /// lane k's value of input i): settles the combinational core, writes each
  /// lane's toggled-line count into `toggles` (64 entries; all zero on the
  /// first step after a reset), then updates the flip-flops per lane. An
  /// empty `toggles` skips the count; state and values advance the same.
  void step(std::span<const std::uint64_t> pi_words,
            std::span<std::uint32_t> toggles);

  /// Per-flop packed state words after the last step's update.
  std::span<const std::uint64_t> state_words() const { return state_; }

  /// Packed settled value of any node in the most recent cycle.
  std::uint64_t value(NodeId id) const { return values_[id]; }

  /// Packed settled values of all nodes in the most recent / previous cycle.
  std::span<const std::uint64_t> values() const { return values_; }
  std::span<const std::uint64_t> prev_values() const { return prev_values_; }

  bool have_prev() const { return have_prev_; }
  std::size_t num_lines() const { return netlist_->num_lines(); }

  /// Bytes owned by the packed lane words (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) +
           (values_.size() + prev_values_.size() + state_.size()) *
               sizeof(std::uint64_t);
  }

 private:
  const Netlist* netlist_;
  std::vector<std::uint64_t> values_;       // packed settled values, current
  std::vector<std::uint64_t> prev_values_;  // packed settled values, previous
  std::vector<std::uint64_t> state_;        // packed per-flop state
  bool have_prev_ = false;
  // Batched per-cycle counters; see the SeqSim members of the same name.
  obs::LocalCounter gates_evaluated_{"sim.packed_gates_evaluated"};
  obs::LocalCounter cycles_stepped_{"sim.packed_cycles_stepped"};
};

}  // namespace fbt
