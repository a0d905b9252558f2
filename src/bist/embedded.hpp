// Embedded-block composition and functional switching-activity calibration
// (dissertation §4.1 Fig. 4.1, §4.4, §4.6).
//
// A target circuit embedded in a larger design has its primary inputs driven
// by another block's primary outputs, which constrains the input sequences it
// can see. The constraints are captured by simulating functional input
// sequences of the complete design (driving block + target) and recording the
// peak per-cycle switching activity inside the target: SWA_func. The "buffers"
// driving block (straight feed-through) represents the unconstrained case.
#pragma once

#include <cstdint>
#include <memory>

#include "bist/signal_transitions.hpp"
#include "bist/tpg.hpp"
#include "netlist/netlist.hpp"

namespace fbt {

struct SwaCalibrationConfig {
  std::size_t num_sequences = 16;    ///< dissertation: 30
  std::size_t sequence_length = 4096;  ///< dissertation: 30000
  TpgConfig tpg;                     ///< TPG built for the driving block
  std::uint64_t rng_seed = 7;
};

struct SwaCalibration {
  double peak_percent = 0.0;  ///< SWA_func
};

/// Simulates `config.num_sequences` functional input sequences through
/// driver -> target and returns the peak switching activity observed in the
/// target. Requires driver.num_outputs() >= target.num_inputs(); the first
/// num_inputs() driver outputs feed the target's inputs in order.
/// Every sequence starts from reset with its own TPG seed, drawn up front
/// from `config.rng_seed`. The sequences are independent, so they run up to
/// 64 at a time, one per lane of a PackedTpg -> PackedSeqSim (driver) ->
/// PackedSeqSim (target) pass; the result is bit-identical to stepping them
/// one after another through the scalar Tpg and SeqSim.
/// `target_flat` is ignored: the simulator reads `target`'s own arrays.
/// Kept only because the fbtbench harness still passes it.
SwaCalibration measure_swa_func(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config,
    std::shared_ptr<const class FlatFanins> target_flat = nullptr);

/// Full functional profile: the SWA peak plus the store of observed signal-
/// transition patterns (§5.1, consumed by the pattern-bound generation mode).
/// The capped store keeps the first patterns in sequence order, so this runs
/// the same packed loop one sequence (lane 0) per pass.
struct FunctionalProfile {
  double peak_percent = 0.0;
  TransitionPatternStore patterns;
};
FunctionalProfile measure_functional_profile(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config, std::size_t max_patterns = 4096);

}  // namespace fbt
