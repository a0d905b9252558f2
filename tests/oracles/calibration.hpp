// Scalar SWA_func calibration: the test oracle for the packed calibration
// loop (bist/embedded.hpp).
//
// Steps each functional sequence one after another through the scalar Tpg
// and two SeqSims (driver, then target), from reset, with the same seeds the
// product draws. The peak is the max of SeqSim's own per-cycle percentage,
// and the pattern store sees every cycle in sequence-major order.
#pragma once

#include "bist/embedded.hpp"
#include "bist/signal_transitions.hpp"
#include "netlist/netlist.hpp"

namespace fbt {

/// The functional profile by definition. `store` may be null (SWA_func
/// only).
FunctionalProfile reference_calibration(const Netlist& target,
                                        const Netlist& driver,
                                        const SwaCalibrationConfig& config,
                                        TransitionPatternStore* store);

}  // namespace fbt
