// 64-way bit-packed sequential simulator with per-lane switching activity.
//
// Advances up to 64 *independent* sequential trajectories per pass: bit k of
// every node word belongs to lane k. All lanes start from the same broadcast
// base state but diverge immediately because each lane receives its own
// primary-input bits, and flip-flop updates are per-bit.
//
// No product code calls it yet. It is pinned lane for lane against the scalar
// SeqSim, and its planned caller is packed SWA_func calibration, which runs
// many independent sequences from reset. (The candidate-seed search does not
// use it: with R = Q = 2 a 64-lane pass costs more than the few candidates
// it could supply. See DESIGN.md, "Why the seed search is sequential".)
//
// Per-lane switching activity is computed without a 64x popcount scan:
// the per-node transition words t = prev XOR cur are accumulated into
// carry-save *vertical counters* (bit-plane adders, one plane per count bit),
// and the 64 per-lane toggle counts are read out of the planes once per
// cycle. One pass over the nodes therefore yields every lane's SWA.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"

namespace fbt {

class PackedSeqSim {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit PackedSeqSim(const Netlist& netlist);

  /// Loads the same scalar base into all 64 lanes: per-flop state, settled
  /// line values of the current and previous cycle, and whether a previous
  /// settled cycle exists (mirrors SeqSim's SWA warm-up: the first step after
  /// a cold load measures no switching activity). `values`/`prev_values` are
  /// ignored when `have_prev` is false.
  void load_broadcast(std::span<const std::uint8_t> state,
                      std::span<const std::uint8_t> values,
                      std::span<const std::uint8_t> prev_values,
                      bool have_prev);

  /// Applies one packed primary-input cycle (`pi_words[i]` carries bit k =
  /// lane k's value of input i): settles the combinational core, writes each
  /// lane's toggled-line count into `toggles` (64 entries; all zero on the
  /// first step after a cold load), then updates the flip-flops per lane.
  void step(std::span<const std::uint64_t> pi_words,
            std::span<std::uint32_t> toggles);

  /// Per-flop packed state words after the last step's update.
  std::span<const std::uint64_t> state_words() const { return state_; }

  /// Packed settled value of any node in the most recent cycle.
  std::uint64_t value(NodeId id) const { return values_[id]; }

  bool have_prev() const { return have_prev_; }
  std::size_t num_lines() const { return netlist_->num_lines(); }

  /// Bytes owned by the packed lane words (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) +
           (values_.size() + prev_values_.size() + state_.size() +
            planes_.size()) *
               sizeof(std::uint64_t);
  }

 private:
  const Netlist* netlist_;
  std::vector<std::uint64_t> values_;       // packed settled values, current
  std::vector<std::uint64_t> prev_values_;  // packed settled values, previous
  std::vector<std::uint64_t> state_;        // packed per-flop state
  std::vector<std::uint64_t> planes_;       // vertical counter bit planes
  bool have_prev_ = false;
  // Batched per-cycle counters; see the SeqSim members of the same name.
  obs::LocalCounter gates_evaluated_{"sim.packed_gates_evaluated"};
  obs::LocalCounter cycles_stepped_{"sim.packed_cycles_stepped"};
};

}  // namespace fbt
