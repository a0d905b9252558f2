// Three-valued (0/1/X) whole-circuit cube simulator: the test oracle for
// the cone-local input cube (bist/input_cube.hpp).
//
// Every eval() settles all combinational gates in eval_order() from the
// current source cube, so it is slow but has nothing to get wrong about
// which gates a source value reaches. Constants are sources here too: eval()
// never evaluates them, so they stay at whatever clear()/set_value() left.
#pragma once

#include <vector>

#include "bist/input_cube.hpp"
#include "netlist/netlist.hpp"
#include "sim/value.hpp"

namespace fbt {

class CubeSim {
 public:
  explicit CubeSim(const Netlist& netlist);

  /// Resets every node (including sources) to X.
  void clear();

  void set_value(NodeId id, Val3 value) { values_[id] = value; }
  Val3 value(NodeId id) const { return values_[id]; }

  /// Evaluates the combinational core from the current source cube.
  void eval();

  /// Number of flip-flop D inputs with a specified (non-X) value. Call after
  /// eval().
  std::size_t specified_next_state_count() const;

 private:
  const Netlist* netlist_;
  std::vector<Val3> values_;
};

/// The input cube by definition (dissertation §4.3): for each input and each
/// value, clear the circuit to X, set the input, simulate the whole circuit
/// and count the specified next-state variables.
InputCube reference_input_cube(const Netlist& netlist);

}  // namespace fbt
