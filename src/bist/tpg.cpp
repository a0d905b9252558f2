#include "bist/tpg.hpp"

#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {

Tpg::Tpg(const Netlist& netlist, const TpgConfig& config)
    : netlist_(&netlist),
      config_(config),
      cube_(compute_input_cube(netlist)),
      lfsr_(config.lfsr_stages) {
  require(config.bias_bits >= 2, "Tpg", "bias_bits (m) must be >= 2");
  const std::size_t npi = netlist.num_inputs();
  const std::size_t nsp = cube_.specified_count();
  const std::size_t size = config.bias_bits * nsp + (npi - nsp);
  shift_register_.assign(size, 0);

  taps_.resize(npi);
  std::uint32_t next_bit = 0;
  for (std::size_t i = 0; i < npi; ++i) {
    const std::size_t count = cube_.values[i] == Val3::kX ? 1 : config.bias_bits;
    for (std::size_t k = 0; k < count; ++k) {
      taps_[i].push_back(next_bit++);
    }
  }
  require(next_bit == size, "Tpg", "internal: tap allocation mismatch");
}

void Tpg::clock_shift_register() {
#if FBT_OBS_ENABLED
  lfsr_cycles_.add(1);
#endif
  lfsr_.step();
  const std::uint8_t in = lfsr_.output() ? 1 : 0;
  for (std::size_t k = shift_register_.size(); k > 1; --k) {
    shift_register_[k - 1] = shift_register_[k - 2];
  }
  shift_register_[0] = in;
}

void Tpg::reseed(std::uint32_t seed) {
  lfsr_.seed(seed);
  // Clocking the register full shifts out every old bit, and the bit shifted
  // in on fill clock c ends at position size - 1 - c: write it there.
  const std::size_t size = shift_register_.size();
#if FBT_OBS_ENABLED
  lfsr_cycles_.add(size);
#endif
  for (std::size_t c = 0; c < size; ++c) {
    lfsr_.step();
    shift_register_[size - 1 - c] = lfsr_.output() ? 1 : 0;
  }
}

std::vector<std::uint8_t> Tpg::next_vector() {
  std::vector<std::uint8_t> vec(netlist_->num_inputs(), 0);
  next_vector_into(vec);
  return vec;
}

void Tpg::next_vector_into(std::span<std::uint8_t> vec) {
  require(vec.size() == netlist_->num_inputs(), "Tpg::next_vector_into",
          "vector size must equal the input count");
#if FBT_OBS_ENABLED
  vectors_generated_.add(1);
#endif
  clock_shift_register();
  for (std::size_t i = 0; i < vec.size(); ++i) {
    const Val3 c = cube_.values[i];
    if (c == Val3::kX) {
      vec[i] = shift_register_[taps_[i][0]];
    } else if (c == Val3::k0) {
      // m-input AND: 0 with probability 1 - 1/2^m.
      std::uint8_t acc = 1;
      for (const std::uint32_t t : taps_[i]) acc &= shift_register_[t];
      vec[i] = acc;
    } else {
      // m-input OR: 1 with probability 1 - 1/2^m.
      std::uint8_t acc = 0;
      for (const std::uint32_t t : taps_[i]) acc |= shift_register_[t];
      vec[i] = acc;
    }
  }
}

}  // namespace fbt
