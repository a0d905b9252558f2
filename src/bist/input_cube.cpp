#include "bist/input_cube.hpp"

namespace fbt {

std::size_t InputCube::specified_count() const {
  std::size_t count = 0;
  for (const Val3 v : values) {
    if (v != Val3::kX) ++count;
  }
  return count;
}

InputCube compute_input_cube(const Netlist& netlist) {
  InputCube cube;
  cube.values.assign(netlist.num_inputs(), Val3::kX);

  // How many flip-flop D inputs each node drives.
  std::vector<std::uint32_t> flops_fed(netlist.size(), 0);
  for (const NodeId ff : netlist.flops()) ++flops_fed[netlist.dff_input(ff)];

  // Every node is X between trials. `specified` is both the worklist of the
  // current trial and its undo list: it holds exactly the nodes the input
  // value made binary, each once.
  std::vector<Val3> values(netlist.size(), Val3::kX);
  std::vector<NodeId> specified;
  for (std::size_t i = 0; i < netlist.num_inputs(); ++i) {
    const NodeId pi = netlist.inputs()[i];
    std::size_t synchronized[2];
    for (int v = 0; v <= 1; ++v) {
      values[pi] = v == 0 ? Val3::k0 : Val3::k1;
      specified.assign(1, pi);
      for (std::size_t k = 0; k < specified.size(); ++k) {
        for (const NodeId out : netlist.fanouts(specified[k])) {
          const GateType type = netlist.type(out);
          if (values[out] != Val3::kX || !is_combinational(type)) continue;
          const std::span<const NodeId> fanins = netlist.fanins(out);
          const Val3 value = eval_gate3_indexed(type, fanins.data(),
                                                fanins.size(), values.data());
          if (value == Val3::kX) continue;
          values[out] = value;
          specified.push_back(out);
        }
      }
      synchronized[v] = 0;
      for (const NodeId id : specified) {
        synchronized[v] += flops_fed[id];
        values[id] = Val3::kX;
      }
    }
    if (synchronized[0] < synchronized[1]) {
      cube.values[i] = Val3::k0;  // 0 synchronizes fewer: favour 0
    } else if (synchronized[1] < synchronized[0]) {
      cube.values[i] = Val3::k1;
    }
  }
  return cube;
}

}  // namespace fbt
