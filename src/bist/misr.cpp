#include "bist/misr.hpp"

#include <bit>

#include "bist/lfsr.hpp"
#include "util/require.hpp"

namespace fbt {

Misr::Misr(unsigned stages)
    : stages_(stages),
      taps_(Lfsr::primitive_taps(stages)),
      mask_(stages == 32 ? 0xffffffffu : ((1u << stages) - 1)) {}

void Misr::absorb(std::span<const std::uint8_t> response) {
  std::uint32_t incoming = 0;
  for (std::size_t i = 0; i < response.size(); ++i) {
    if (response[i]) incoming ^= 1u << (i % stages_);
  }
  const auto feedback =
      static_cast<std::uint32_t>(std::popcount(state_ & taps_) & 1);
  state_ = (((state_ << 1) | feedback) ^ incoming) & mask_;
}

}  // namespace fbt
