// Scalar sequential simulator with per-cycle switching activity.
//
// Drives the circuit cycle by cycle from a loadable state, exactly as the
// on-chip TPG does during built-in test generation (dissertation §4.3-§4.5):
// apply a primary-input vector, settle the combinational logic, measure the
// switching activity against the previous cycle's line values, then update the
// state (optionally holding a subset of state variables, §4.5.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"

namespace fbt {

/// Result of one simulated clock cycle.
struct SeqStep {
  /// Lines whose settled value differs from the previous cycle's.
  std::size_t toggled_lines = 0;
  /// toggled_lines as a percentage of all circuit lines (SWA(i), §4.4).
  double switching_percent = 0.0;
};

/// SWA(i) as a percentage of all circuit lines (§4.4). Packed calibration
/// applies the same expression to its lane counts, so both report
/// bit-identical percentages.
inline double switching_percent(std::size_t toggled_lines,
                                std::size_t num_lines) {
  return num_lines == 0
             ? 0.0
             : 100.0 * toggled_lines / static_cast<double>(num_lines);
}

class SeqSim {
 public:
  /// Runs `netlist`'s own compiled gate program; the netlist must outlive
  /// the simulator.
  explicit SeqSim(const Netlist& netlist);

  /// Loads a state (one 0/1 value per flop, in netlist flop order), resets the
  /// cycle counter, and clears switching-activity history (the next step's
  /// SWA is measured against the settled values of this state with the first
  /// input vector; per the dissertation SWA(0) is undefined, so callers skip
  /// the first step's percentage or treat it as cycle-1-vs-cycle-0).
  void load_state(std::span<const std::uint8_t> state);

  /// Convenience: loads the all-0 state (the assumed reachable reset state).
  void load_reset_state();

  /// Applies one primary-input vector: settles combinational logic, measures
  /// toggles vs. the previous settled values, then updates flip-flops.
  /// `held` (optional) has one entry per flop; a nonzero entry keeps that
  /// state variable's value (clock-gated hold, Fig. 4.10).
  SeqStep step(std::span<const std::uint8_t> pi_values,
               std::span<const std::uint8_t> held = {});

  /// Current state (after the last step's update), one value per flop.
  const std::vector<std::uint8_t>& state() const { return state_; }

  /// Settled value of any node in the most recent cycle.
  std::uint8_t value(NodeId id) const { return values_[id]; }

  /// Settled values of all lines in the most recent / previous cycle
  /// (consumed by the signal-transition-pattern bound, §5.1).
  const std::vector<std::uint8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& prev_values() const { return prev_values_; }

  /// Primary-output values of the most recent cycle.
  std::vector<std::uint8_t> outputs() const;

  /// Number of step() calls since the last load_state().
  std::size_t cycle() const { return cycle_; }

  /// Whether a previous settled cycle exists (the next step measures SWA).
  bool have_prev() const { return have_prev_; }

  /// Opaque snapshot of the full simulation state (flip-flops, settled line
  /// values, switching-activity history). Used by the BIST flow to evaluate
  /// candidate TPG seeds and roll back rejected ones.
  struct Snapshot {
    std::vector<std::uint8_t> values;
    std::vector<std::uint8_t> prev_values;
    std::vector<std::uint8_t> state;
    std::size_t cycle = 0;
    bool have_prev = false;
  };
  Snapshot snapshot() const;
  /// Overwrites `out` in place, reusing its buffers (no allocation once the
  /// vectors have reached netlist size). For snapshot pools in hot loops.
  void snapshot_into(Snapshot& out) const;
  void restore(const Snapshot& snap);

  /// Bytes owned by the value/state arrays (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) +
           (values_.size() + prev_values_.size() + state_.size()) *
               sizeof(std::uint8_t);
  }

 private:
  const Netlist* netlist_;
  std::vector<std::uint8_t> values_;       // settled values, current cycle
  std::vector<std::uint8_t> prev_values_;  // settled values, previous cycle
  std::vector<std::uint8_t> state_;        // per flop
  std::size_t cycle_ = 0;
  bool have_prev_ = false;
  // Batched per-cycle counters: one atomic RMW per simulated cycle is the
  // dominant observability cost on small circuits (see bench/obs_overhead).
  obs::LocalCounter gates_evaluated_{"sim.seqsim_gates_evaluated"};
  obs::LocalCounter cycles_stepped_{"sim.seqsim_cycles_stepped"};
};

}  // namespace fbt
