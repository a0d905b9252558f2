// The gate-evaluation kernel every two-valued simulator shares.
//
// Netlist::finalize() compiles each gate into two-input truth-table ops
// (GateOp); run_program() walks them over a value array of any word type.
// SeqSim uses 0/1 bytes, BitSim and PackedSeqSim 64-lane words, and
// PackedFaultProp applies the same tables to its lane-diff records. No
// simulator dispatches on GateType in its hot loop.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "netlist/netlist.hpp"

namespace fbt {

namespace detail {

// Algebraic normal form of every 4-bit table as lane masks:
// f(a, b) = c[0] ^ (c[1] & a) ^ (c[2] & b) ^ (c[3] & a & b).
template <class Word>
inline constexpr auto kAnf = [] {
  std::array<std::array<Word, 4>, 16> c{};
  for (unsigned tt = 0; tt < 16; ++tt) {
    const unsigned t0 = tt & 1, t1 = (tt >> 1) & 1;
    const unsigned t2 = (tt >> 2) & 1, t3 = (tt >> 3) & 1;
    const unsigned coef[4] = {t0, t0 ^ t2, t0 ^ t1, t0 ^ t1 ^ t2 ^ t3};
    for (unsigned k = 0; k < 4; ++k) c[tt][k] = coef[k] ? ~Word{0} : Word{0};
  }
  return c;
}();

}  // namespace detail

/// Bit (a << 1) | b of `tt`, lane by lane. Bytes hold one 0/1 value and
/// index the table directly; wider words combine the table's algebraic
/// normal form, branchlessly, over all lanes at once.
template <class Word>
inline Word apply_table(std::uint32_t tt, Word a, Word b) {
  if constexpr (std::is_same_v<Word, std::uint8_t>) {
    return static_cast<std::uint8_t>((tt >> ((a << 1) | b)) & 1u);
  } else {
    const auto& c = detail::kAnf<Word>[tt & 0xF];
    return c[0] ^ (c[1] & a) ^ (c[2] & b) ^ (c[3] & a & b);
  }
}

/// Runs `program` over `values` (one word per netlist node): settles every
/// combinational node and constant from the source words already in place.
template <class Word>
inline void run_program(std::span<const GateOp> program, Word* values) {
  for (const GateOp& op : program) {
    values[op.out] = apply_table(op.tt, values[op.a], values[op.b]);
  }
}

}  // namespace fbt
