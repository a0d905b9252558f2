// Elaboration of the emitted Verilog back into a cycle-steppable model.
//
// A deliberately small structural-Verilog front end: it parses exactly the
// subset write_verilog_module/emit_bist_rtl produce (module headers,
// input/output/wire declarations, constant and alias assigns, primitive
// gates, fbt_dff instances, and named-port module instances), flattens the
// hierarchy under the chosen top module, and builds a plain fbt::Netlist the
// existing gate evaluator can step. The lockstep checker drives this model
// clock-for-clock against the behavioral BistSession -- so the emitted text
// itself (not the data structures it came from) is what gets verified.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace fbt {

/// Flattened design: one netlist plus a name table mapping every hierarchical
/// net name (instance path joined with "__") to its node. Nets merged by port
/// connections or alias assigns share a node and keep all their names.
struct RtlDesign {
  Netlist netlist;
  std::unordered_map<std::string, NodeId> nodes;

  /// Node for any alias of a net; kNoNode when the name is unknown.
  NodeId node(const std::string& name) const {
    const auto it = nodes.find(name);
    return it == nodes.end() ? kNoNode : it->second;
  }
};

/// Parses `text` and flattens the hierarchy under module `top`. The fbt_dff
/// cell is treated as the primitive flip-flop (its behavioral body is
/// skipped); the clock network is dropped -- the model is single-clock and
/// steps on demand. Throws (via require) on any construct outside the subset,
/// on multiply-driven / undriven nets, and -- before flattening anything --
/// on an instantiation cycle, a hierarchy deeper than kMaxElaborateDepth, or
/// a flattened design of more than kMaxElaborateCells cells (gates, flops,
/// assigns, module instances and their port connections).
inline constexpr std::size_t kMaxElaborateDepth = 256;
inline constexpr std::size_t kMaxElaborateCells = std::size_t{1} << 20;
RtlDesign elaborate_verilog(const std::string& text, const std::string& top);

/// Two-phase simulator over a flattened design: settle() evaluates the
/// combinational logic from the current flop values, step() applies one
/// clock edge (all flops load their D simultaneously) and re-settles.
/// All flops power up at 0, matching the fbt_dff cell model.
class RtlSim {
 public:
  explicit RtlSim(const RtlDesign& design);

  void settle();
  void step();

  std::uint8_t value(NodeId id) const { return values_[id]; }
  std::uint8_t value(const std::string& name) const;

  /// Drives a primary input of the flattened design; call settle() (or let
  /// the next step() do it) to propagate.
  void set_value(NodeId id, std::uint8_t v) { values_[id] = v & 1u; }

 private:
  const RtlDesign* design_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> next_state_;
};

}  // namespace fbt
