#include "sim/packed_seqsim.hpp"

#include <algorithm>
#include <bit>

#include "obs/instrument.hpp"
#include "sim/gate_program.hpp"
#include "util/require.hpp"

namespace fbt {

namespace {

inline std::uint64_t broadcast_bit(std::uint8_t v) {
  return v ? ~0ULL : 0ULL;
}

}  // namespace

PackedSeqSim::PackedSeqSim(const Netlist& netlist)
    : netlist_(&netlist) {
  require(netlist.finalized(), "PackedSeqSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  prev_values_.assign(netlist.size(), 0);
  state_.assign(netlist.num_flops(), 0);
  // Enough bit planes to count a toggle on every line of the circuit.
  planes_.assign(std::bit_width(netlist.size()), 0);
}

void PackedSeqSim::load_broadcast(std::span<const std::uint8_t> state,
                                  std::span<const std::uint8_t> values,
                                  std::span<const std::uint8_t> prev_values,
                                  bool have_prev) {
  require(state.size() == netlist_->num_flops(),
          "PackedSeqSim::load_broadcast", "state size must equal flop count");
  for (std::size_t i = 0; i < state.size(); ++i) {
    state_[i] = broadcast_bit(state[i]);
  }
  have_prev_ = have_prev;
  if (have_prev) {
    require(values.size() == netlist_->size() &&
                prev_values.size() == netlist_->size(),
            "PackedSeqSim::load_broadcast",
            "value vectors must cover every node when have_prev is set");
    for (std::size_t i = 0; i < values.size(); ++i) {
      values_[i] = broadcast_bit(values[i]);
      prev_values_[i] = broadcast_bit(prev_values[i]);
    }
  }
}

void PackedSeqSim::step(std::span<const std::uint64_t> pi_words,
                        std::span<std::uint32_t> toggles) {
  require(pi_words.size() == netlist_->num_inputs(), "PackedSeqSim::step",
          "packed primary input word count mismatch");
  require(toggles.size() == kLanes, "PackedSeqSim::step",
          "toggles span must have one entry per lane");

  values_.swap(prev_values_);

  // Sources.
  for (std::size_t i = 0; i < pi_words.size(); ++i) {
    values_[netlist_->inputs()[i]] = pi_words[i];
  }
  for (std::size_t i = 0; i < state_.size(); ++i) {
    values_[netlist_->flops()[i]] = state_[i];
  }

  // Settle combinational logic and constants, all 64 lanes per word op.
  run_program(netlist_->program(), values_.data());
#if FBT_OBS_ENABLED
  gates_evaluated_.add(netlist_->num_gates());
  cycles_stepped_.add(1);
#endif

  // Per-lane switching activity via carry-save vertical counters: add each
  // node's transition word (one bit per lane) into the bit planes, then read
  // the 64 lane counts back out. Mirrors SeqSim: the first step after a cold
  // load has no previous settled cycle, so no activity is measured.
  std::fill(toggles.begin(), toggles.end(), 0u);
  if (have_prev_) {
    std::fill(planes_.begin(), planes_.end(), 0ULL);
    for (NodeId id = 0; id < netlist_->size(); ++id) {
      std::uint64_t carry = values_[id] ^ prev_values_[id];
      for (std::size_t p = 0; carry != 0; ++p) {
        const std::uint64_t plane = planes_[p];
        planes_[p] = plane ^ carry;
        carry = plane & carry;
      }
    }
    for (std::size_t p = 0; p < planes_.size(); ++p) {
      std::uint64_t w = planes_[p];
      while (w != 0) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(w));
        toggles[k] += 1u << p;
        w &= w - 1;
      }
    }
  }
  have_prev_ = true;

  // State update, per lane (no holding: the packed engine falls back to the
  // scalar path for state-holding configurations).
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = values_[netlist_->dff_input(netlist_->flops()[i])];
  }
}

}  // namespace fbt
