// Logic value domains shared by the simulators and ATPG.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/gate_type.hpp"

namespace fbt {

/// Three-valued logic (0, 1, unknown).
enum class Val3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

inline Val3 not3(Val3 a) {
  if (a == Val3::kX) return Val3::kX;
  return a == Val3::k0 ? Val3::k1 : Val3::k0;
}

/// Evaluates one gate over three-valued fanin values.
Val3 eval_gate3(GateType type, std::span<const Val3> fanins);

/// Evaluates one gate over two-valued fanin values (0/1 in a std::uint8_t).
std::uint8_t eval_gate2(GateType type, std::span<const std::uint8_t> fanins);

/// Evaluates one gate over 64 patterns packed in std::uint64_t words.
std::uint64_t eval_gate64(GateType type, std::span<const std::uint64_t> fanins);

/// eval_gate3 over fanin values gathered through an id array (the
/// three-valued hot loops; the two-valued simulators run the compiled gate
/// program of sim/gate_program.hpp instead).
Val3 eval_gate3_indexed(GateType type, const std::uint32_t* fanin_ids,
                        std::size_t count, const Val3* values);

}  // namespace fbt
