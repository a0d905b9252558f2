#include "oracles/cubesim.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace fbt {

CubeSim::CubeSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "CubeSim", "netlist must be finalized");
  values_.assign(netlist.size(), Val3::kX);
}

void CubeSim::clear() {
  std::fill(values_.begin(), values_.end(), Val3::kX);
}

void CubeSim::eval() {
  std::vector<Val3> fanins;
  for (const NodeId id : netlist_->eval_order()) {
    const Gate& g = netlist_->gate(id);
    fanins.clear();
    for (const NodeId f : g.fanins) fanins.push_back(values_[f]);
    values_[id] = eval_gate3(g.type, fanins);
  }
}

std::size_t CubeSim::specified_next_state_count() const {
  std::size_t count = 0;
  for (const NodeId ff : netlist_->flops()) {
    if (values_[netlist_->dff_input(ff)] != Val3::kX) ++count;
  }
  return count;
}

InputCube reference_input_cube(const Netlist& netlist) {
  InputCube cube;
  cube.values.assign(netlist.num_inputs(), Val3::kX);
  CubeSim sim(netlist);
  for (std::size_t i = 0; i < netlist.num_inputs(); ++i) {
    std::size_t synchronized[2];
    for (int v = 0; v <= 1; ++v) {
      sim.clear();
      sim.set_value(netlist.inputs()[i], v == 0 ? Val3::k0 : Val3::k1);
      sim.eval();
      synchronized[v] = sim.specified_next_state_count();
    }
    if (synchronized[0] < synchronized[1]) {
      cube.values[i] = Val3::k0;
    } else if (synchronized[1] < synchronized[0]) {
      cube.values[i] = Val3::k1;
    }
  }
  return cube;
}

}  // namespace fbt
