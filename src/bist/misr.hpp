// Multiple-input signature register (dissertation §4.2, Fig. 4.4).
//
// An LFSR whose stage inputs are additionally XORed with the circuit response
// bits D1..Dn each clock; the final state is the response signature. Responses
// wider than the register are folded onto the stages modulo the width (a
// standard space-compaction front end).
#pragma once

#include <cstdint>
#include <span>

namespace fbt {

class Misr {
 public:
  /// Constructs an n-stage MISR, 2 <= stages <= 32, with the same primitive
  /// feedback polynomial as Lfsr.
  explicit Misr(unsigned stages);

  unsigned stages() const { return stages_; }

  /// Resets the signature to zero.
  void reset() { state_ = 0; }

  std::uint32_t signature() const { return state_; }

  /// Absorbs one clock's worth of response bits (0/1 values). Bits beyond
  /// `stages` fold onto stage (i mod stages).
  void absorb(std::span<const std::uint8_t> response);

 private:
  unsigned stages_;
  std::uint32_t taps_;
  std::uint32_t mask_;
  std::uint32_t state_ = 0;
};

}  // namespace fbt
