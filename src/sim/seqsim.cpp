#include "sim/seqsim.hpp"

#include <algorithm>
#include <cstring>

#include "obs/instrument.hpp"
#include "sim/gate_program.hpp"
#include "util/require.hpp"

namespace fbt {

SeqSim::SeqSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "SeqSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  prev_values_.assign(netlist.size(), 0);
  state_.assign(netlist.num_flops(), 0);
}

void SeqSim::load_state(std::span<const std::uint8_t> state) {
  require(state.size() == netlist_->num_flops(), "SeqSim::load_state",
          "state size must equal the flop count");
  // Values stay 0/1 bytes: step() counts toggles by popcount over them.
  std::transform(state.begin(), state.end(), state_.begin(),
                 [](std::uint8_t v) -> std::uint8_t { return v ? 1 : 0; });
  cycle_ = 0;
  have_prev_ = false;
}

void SeqSim::load_reset_state() {
  std::fill(state_.begin(), state_.end(), 0);
  cycle_ = 0;
  have_prev_ = false;
}

SeqStep SeqSim::step(std::span<const std::uint8_t> pi_values,
                     std::span<const std::uint8_t> held) {
  require(pi_values.size() == netlist_->num_inputs(), "SeqSim::step",
          "primary input vector size mismatch");
  require(held.empty() || held.size() == netlist_->num_flops(),
          "SeqSim::step", "held mask size mismatch");

  values_.swap(prev_values_);

  // Sources.
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    values_[netlist_->inputs()[i]] = pi_values[i] ? 1 : 0;
  }
  for (std::size_t i = 0; i < state_.size(); ++i) {
    values_[netlist_->flops()[i]] = state_[i];
  }

  // Settle combinational logic and constants.
  run_program(netlist_->program(), values_.data());
#if FBT_OBS_ENABLED
  gates_evaluated_.add(netlist_->num_gates());
  cycles_stepped_.add(1);
#endif

  // Switching activity vs. the previous settled cycle, 8 nodes per word.
  // Values are 0/1 bytes, so a ^ b has one 0/1 byte per node and the
  // multiply sums those bytes into the top one (a popcount that needs no
  // POPCNT instruction on baseline x86-64).
  SeqStep result;
  if (have_prev_) {
    const std::uint8_t* cur = values_.data();
    const std::uint8_t* prev = prev_values_.data();
    const std::size_t n = netlist_->size();
    std::size_t id = 0;
    for (; id + 8 <= n; id += 8) {
      std::uint64_t a = 0, b = 0;
      std::memcpy(&a, cur + id, sizeof a);
      std::memcpy(&b, prev + id, sizeof b);
      result.toggled_lines += ((a ^ b) * 0x0101010101010101ULL) >> 56;
    }
    for (; id < n; ++id) result.toggled_lines += cur[id] != prev[id] ? 1 : 0;
    result.switching_percent =
        switching_percent(result.toggled_lines, netlist_->num_lines());
  }
  have_prev_ = true;

  // State update (with optional per-flop hold).
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (!held.empty() && held[i]) continue;
    state_[i] = values_[netlist_->dff_input(netlist_->flops()[i])];
  }
  ++cycle_;
  return result;
}

SeqSim::Snapshot SeqSim::snapshot() const {
  return Snapshot{values_, prev_values_, state_, cycle_, have_prev_};
}

void SeqSim::snapshot_into(Snapshot& out) const {
  out.values = values_;
  out.prev_values = prev_values_;
  out.state = state_;
  out.cycle = cycle_;
  out.have_prev = have_prev_;
}

void SeqSim::restore(const Snapshot& snap) {
  require(snap.values.size() == values_.size() &&
              snap.state.size() == state_.size(),
          "SeqSim::restore", "snapshot is for a different netlist");
  values_ = snap.values;
  prev_values_ = snap.prev_values;
  state_ = snap.state;
  cycle_ = snap.cycle;
  have_prev_ = snap.have_prev;
}

std::vector<std::uint8_t> SeqSim::outputs() const {
  std::vector<std::uint8_t> out;
  out.reserve(netlist_->num_outputs());
  for (const NodeId po : netlist_->outputs()) out.push_back(values_[po]);
  return out;
}

}  // namespace fbt
