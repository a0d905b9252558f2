#include "sim/value.hpp"

#include "util/require.hpp"

namespace fbt {

Val3 eval_gate3(GateType type, std::span<const Val3> fanins) {
  switch (type) {
    case GateType::kConst0:
      return Val3::k0;
    case GateType::kConst1:
      return Val3::k1;
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return not3(fanins[0]);
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_x = false;
      for (const Val3 v : fanins) {
        if (v == Val3::k0) {
          return type == GateType::kAnd ? Val3::k0 : Val3::k1;
        }
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kAnd ? Val3::k1 : Val3::k0;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_x = false;
      for (const Val3 v : fanins) {
        if (v == Val3::k1) {
          return type == GateType::kOr ? Val3::k1 : Val3::k0;
        }
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kOr ? Val3::k0 : Val3::k1;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = type == GateType::kXnor;  // XNOR = !XOR
      for (const Val3 v : fanins) {
        if (v == Val3::kX) return Val3::kX;
        parity ^= (v == Val3::k1);
      }
      return parity ? Val3::k1 : Val3::k0;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw Error("eval_gate3: sources have no combinational function");
}

std::uint8_t eval_gate2(GateType type, std::span<const std::uint8_t> fanins) {
  switch (type) {
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return 1;
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return fanins[0] ^ 1u;
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint8_t acc = 1;
      for (const std::uint8_t v : fanins) acc &= v;
      return type == GateType::kAnd ? acc : acc ^ 1u;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint8_t acc = 0;
      for (const std::uint8_t v : fanins) acc |= v;
      return type == GateType::kOr ? acc : acc ^ 1u;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint8_t acc = 0;
      for (const std::uint8_t v : fanins) acc ^= v;
      return type == GateType::kXor ? acc : acc ^ 1u;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw Error("eval_gate2: sources have no combinational function");
}

std::uint64_t eval_gate64(GateType type,
                          std::span<const std::uint64_t> fanins) {
  switch (type) {
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return ~fanins[0];
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (const std::uint64_t v : fanins) acc &= v;
      return type == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t acc = 0;
      for (const std::uint64_t v : fanins) acc |= v;
      return type == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t acc = 0;
      for (const std::uint64_t v : fanins) acc ^= v;
      return type == GateType::kXor ? acc : ~acc;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw Error("eval_gate64: sources have no combinational function");
}

Val3 eval_gate3_indexed(GateType type, const std::uint32_t* fanin_ids,
                        std::size_t count, const Val3* values) {
  switch (type) {
    case GateType::kConst0:
      return Val3::k0;
    case GateType::kConst1:
      return Val3::k1;
    case GateType::kBuf:
      return values[fanin_ids[0]];
    case GateType::kNot:
      return not3(values[fanin_ids[0]]);
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_x = false;
      for (std::size_t i = 0; i < count; ++i) {
        const Val3 v = values[fanin_ids[i]];
        if (v == Val3::k0) {
          return type == GateType::kAnd ? Val3::k0 : Val3::k1;
        }
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kAnd ? Val3::k1 : Val3::k0;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_x = false;
      for (std::size_t i = 0; i < count; ++i) {
        const Val3 v = values[fanin_ids[i]];
        if (v == Val3::k1) {
          return type == GateType::kOr ? Val3::k1 : Val3::k0;
        }
        if (v == Val3::kX) any_x = true;
      }
      if (any_x) return Val3::kX;
      return type == GateType::kOr ? Val3::k0 : Val3::k1;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = type == GateType::kXnor;
      for (std::size_t i = 0; i < count; ++i) {
        const Val3 v = values[fanin_ids[i]];
        if (v == Val3::kX) return Val3::kX;
        parity ^= (v == Val3::k1);
      }
      return parity ? Val3::k1 : Val3::k0;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw Error("eval_gate3_indexed: sources have no combinational function");
}

}  // namespace fbt
