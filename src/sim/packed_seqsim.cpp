#include "sim/packed_seqsim.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "obs/instrument.hpp"
#include "sim/gate_program.hpp"
#include "util/require.hpp"

namespace fbt {

namespace {

// Carry-save adder, lane by lane: h:l = a + b + c.
inline void csa(std::uint64_t& h, std::uint64_t& l, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  h = (a & b) | (u & c);
  l = u ^ c;
}

}  // namespace

void lane_transition_counts(std::span<const std::uint64_t> cur,
                            std::span<const std::uint64_t> prev,
                            std::span<std::uint32_t, 64> counts) {
  require(cur.size() == prev.size(), "lane_transition_counts",
          "value spans must have equal size");
  require(cur.size() <= std::numeric_limits<std::uint32_t>::max(),
          "lane_transition_counts", "too many words for 32-bit counts");
  // Bit planes of the sixteens count: plane p has weight 16 << p, so 28
  // planes hold any 32-bit count.
  std::array<std::uint64_t, 28> planes{};
  std::size_t used = 0;
  std::uint64_t ones = 0, twos = 0, fours = 0, eights = 0;

  const auto add_block = [&](const std::uint64_t* a, const std::uint64_t* b) {
    std::uint64_t twos_a = 0, twos_b = 0, fours_a = 0, fours_b = 0;
    std::uint64_t eights_a = 0, eights_b = 0, sixteens = 0;
    csa(twos_a, ones, ones, a[0] ^ b[0], a[1] ^ b[1]);
    csa(twos_b, ones, ones, a[2] ^ b[2], a[3] ^ b[3]);
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, a[4] ^ b[4], a[5] ^ b[5]);
    csa(twos_b, ones, ones, a[6] ^ b[6], a[7] ^ b[7]);
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, a[8] ^ b[8], a[9] ^ b[9]);
    csa(twos_b, ones, ones, a[10] ^ b[10], a[11] ^ b[11]);
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, a[12] ^ b[12], a[13] ^ b[13]);
    csa(twos_b, ones, ones, a[14] ^ b[14], a[15] ^ b[15]);
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    for (std::size_t p = 0; sixteens != 0; ++p) {
      const std::uint64_t plane = planes[p];
      planes[p] = plane ^ sixteens;
      sixteens &= plane;
      used = std::max(used, p + 1);
    }
  };

  const std::size_t n = cur.size();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) add_block(cur.data() + i, prev.data() + i);
  if (i < n) {
    // Zero-padded last block: padding words carry no transitions.
    std::array<std::uint64_t, 16> a{}, b{};
    std::copy(cur.begin() + i, cur.end(), a.begin());
    std::copy(prev.begin() + i, prev.end(), b.begin());
    add_block(a.data(), b.data());
  }

  for (std::size_t k = 0; k < 64; ++k) {
    std::uint32_t c = 0;
    for (std::size_t p = used; p-- > 0;) {
      c = (c << 1) | static_cast<std::uint32_t>((planes[p] >> k) & 1);
    }
    counts[k] = (c << 4) | static_cast<std::uint32_t>(
                               (((eights >> k) & 1) << 3) |
                               (((fours >> k) & 1) << 2) |
                               (((twos >> k) & 1) << 1) | ((ones >> k) & 1));
  }
}

PackedSeqSim::PackedSeqSim(const Netlist& netlist)
    : netlist_(&netlist) {
  require(netlist.finalized(), "PackedSeqSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  prev_values_.assign(netlist.size(), 0);
  state_.assign(netlist.num_flops(), 0);
}

void PackedSeqSim::load_reset_state() {
  std::fill(state_.begin(), state_.end(), 0ULL);
  have_prev_ = false;
}

void PackedSeqSim::step(std::span<const std::uint64_t> pi_words,
                        std::span<std::uint32_t> toggles) {
  require(pi_words.size() == netlist_->num_inputs(), "PackedSeqSim::step",
          "packed primary input word count mismatch");
  require(toggles.empty() || toggles.size() == kLanes, "PackedSeqSim::step",
          "toggles span must be empty or have one entry per lane");

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

  // Per-lane switching activity. Mirrors SeqSim: the first step after a
  // reset has no previous settled cycle, so no activity is measured.
  if (!toggles.empty()) {
    const std::span<std::uint32_t, kLanes> counts(toggles.data(), kLanes);
    if (have_prev_) {
      lane_transition_counts(values_, prev_values_, counts);
    } else {
      std::fill(counts.begin(), counts.end(), 0u);
    }
  }
  have_prev_ = true;

  // State update, per lane.
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = values_[netlist_->dff_input(netlist_->flops()[i])];
  }
}

}  // namespace fbt
