// Flattened fanin view for hot simulation loops.
//
// The simulators evaluate every gate every cycle; the eval-order CSR (gate
// id, type, fanin span, contiguous fanin ids) and the compiled gate program
// are built once by Netlist::finalize() and owned by the netlist. FlatFanins
// is a thin view over those arrays: building or copying one costs a few
// pointers, not a duplicate of the circuit, so nothing caches it. The view
// relies on the caller keeping the netlist alive, which every simulator in
// the tree already does.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/netlist.hpp"

namespace fbt {

class FlatFanins {
 public:
  using Entry = EvalEntry;

  explicit FlatFanins(const Netlist& netlist)
      : entries_(netlist.eval_entries()),
        fanins_(netlist.eval_fanin_ids()),
        const0_(netlist.const0_nodes()),
        const1_(netlist.const1_nodes()),
        program_(netlist.program()) {}

  std::span<const Entry> entries() const { return entries_; }
  const NodeId* fanin_ids() const { return fanins_; }
  std::span<const NodeId> const0_nodes() const { return const0_; }
  std::span<const NodeId> const1_nodes() const { return const1_; }
  /// The netlist's compiled gate program (Netlist::program()).
  std::span<const GateOp> program() const { return program_; }

  /// Bytes held by this view itself. The CSR content is owned by the netlist
  /// and accounted in Netlist::footprint_bytes() exactly once.
  std::uint64_t footprint_bytes() const { return sizeof(*this); }

 private:
  std::span<const Entry> entries_;
  const NodeId* fanins_;
  std::span<const NodeId> const0_;
  std::span<const NodeId> const1_;
  std::span<const GateOp> program_;
};

}  // namespace fbt
