// Primary input cube C (dissertation §4.3, repeated-synchronization
// avoidance [88]).
//
// For each primary input i, assign 0 (then 1) with every other input and all
// present-state variables unknown, and count how many next-state variables
// become specified. The input value that synchronizes *fewer* state variables
// is the one that should appear more often in the pseudo-random sequence,
// because the more-synchronizing value would repeatedly force the same state
// values and prevent faults from being detected. C(i) = that value, or X when
// both values synchronize equally.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/value.hpp"

namespace fbt {

/// One entry per primary input (index-aligned with netlist.inputs()).
struct InputCube {
  std::vector<Val3> values;

  /// N_SP: number of inputs with a specified (non-X) cube value (Table 4.2).
  std::size_t specified_count() const;
};

/// Computes the cube by three-valued simulation of one frame per input value.
/// With no input specified every node is X (constants included: they are
/// sources the three-valued frame never evaluates), and Kleene logic is
/// monotone, so each trial propagates the input value through only the gates
/// it makes binary and counts the flip-flops those gates feed. The result
/// equals a whole-circuit three-valued simulation per trial.
InputCube compute_input_cube(const Netlist& netlist);

}  // namespace fbt
