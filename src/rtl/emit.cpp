#include "rtl/emit.hpp"

#include <algorithm>
#include <sstream>

#include "bist/counters.hpp"
#include "bist/tpg.hpp"
#include "netlist/export.hpp"
#include "obs/instrument.hpp"
#include "rtl/builders.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

/// Named-port instantiation of a module emitted by write_verilog_module:
/// inputs bound by position to `in_wires`, output ports to `out_wires`.
void emit_instance(std::ostream& out, const Netlist& mod,
                   const VerilogNames& names, const std::string& inst,
                   const std::vector<std::string>& in_wires,
                   const std::vector<std::string>& out_wires) {
  require(in_wires.size() == mod.num_inputs() &&
              out_wires.size() == mod.num_outputs(),
          "emit_instance", "port binding count mismatch");
  out << "  " << names.module_name << " " << inst << " (.clk(clk)";
  for (std::size_t i = 0; i < mod.num_inputs(); ++i) {
    out << ", ." << names.net[mod.inputs()[i]] << "(" << in_wires[i] << ")";
  }
  for (std::size_t i = 0; i < mod.num_outputs(); ++i) {
    out << ", ." << names.out_port[i] << "(" << out_wires[i] << ")";
  }
  out << ");\n";
}

std::size_t count_gates(const Netlist& mod, GateType a, GateType b) {
  std::size_t n = 0;
  for (NodeId id = 0; id < mod.size(); ++id) {
    if (mod.type(id) == a || mod.type(id) == b) ++n;
  }
  return n;
}

}  // namespace

EmittedRtl emit_bist_rtl(const Netlist& cut, const FunctionalBistResult& plan,
                         const ScanChains& scan, const SessionConfig& session,
                         const RtlEmitOptions& opts) {
  FBT_OBS_PHASE("rtl");
  require(cut.finalized(), "emit_bist_rtl", "CUT must be finalized");
  require(cut.num_inputs() >= 1, "emit_bist_rtl", "CUT has no primary inputs");
  require(cut.num_flops() >= 1, "emit_bist_rtl", "CUT has no flip-flops");
  require(!plan.sequences.empty(), "emit_bist_rtl", "plan has no sequences");
  require(scan.longest_length() >= 1, "emit_bist_rtl", "empty scan chains");
  for (std::size_t ch = 0; ch < scan.num_chains(); ++ch) {
    require(scan.longest_length() % scan.chain(ch).size() == 0,
            "emit_bist_rtl",
            "every chain length must divide Lsc so the circular shift "
            "restores the captured state (use an equal-length partition)");
  }

  const Tpg tpg(cut, session.tpg);
  const unsigned lfsr_bits = session.tpg.lfsr_stages;
  const std::uint32_t seed_mask =
      lfsr_bits == 32 ? 0xffffffffu : ((1u << lfsr_bits) - 1);

  ControllerSpec spec;
  spec.shift_register_size = tpg.shift_register_size();
  spec.scan_length = scan.longest_length();
  spec.q = session.q;
  spec.lfsr_bits = lfsr_bits;
  std::size_t lmax = 0, nseg_max = 0, num_seeds = 0;
  for (const SequenceRecord& seq : plan.sequences) {
    std::vector<std::pair<std::uint32_t, std::size_t>> segs;
    for (const SegmentRecord& seg : seq.segments) {
      std::uint32_t eff = seg.seed & seed_mask;
      if (eff == 0) eff = 1;
      segs.emplace_back(eff, seg.length);
      lmax = std::max(lmax, seg.length);
      ++num_seeds;
    }
    nseg_max = std::max(nseg_max, seq.segments.size());
    spec.sequences.push_back(std::move(segs));
  }
  spec.cycle_counter_bits = bits_for(std::max<std::size_t>(2, lmax));
  spec.shift_counter_bits =
      bits_for(std::max<std::size_t>(2, spec.scan_length));
  spec.segment_counter_bits = bits_for(std::max<std::size_t>(2, nseg_max));
  spec.sequence_counter_bits =
      bits_for(std::max<std::size_t>(2, plan.sequences.size()));
  spec.srinit_counter_bits =
      bits_for(std::max<std::size_t>(2, spec.shift_register_size));
  if (!session.hold_sets.empty()) {
    spec.hold_period_log2 = session.hold_period_log2;
    spec.num_hold_sets = session.hold_sets.size();
    spec.set_counter_bits =
        bits_for(std::max<std::size_t>(2, session.hold_sets.size()));
    spec.hold_set_of_sequence = session.hold_set_of_sequence;
  }

  const Netlist ctrl = build_controller_module(spec);
  const Netlist lfsr = build_lfsr_module(lfsr_bits);
  const Netlist sr = build_shiftreg_module(spec.shift_register_size);
  const Netlist bias = build_bias_module(tpg);
  const Netlist wrap = build_cut_wrapper(cut, scan, session.hold_sets);
  const Netlist misr = build_misr_module(session.misr_stages,
                                         cut.num_outputs(), scan.num_chains());

  const VerilogNames ctrl_names = verilog_names(ctrl);
  const VerilogNames lfsr_names = verilog_names(lfsr);
  const VerilogNames sr_names = verilog_names(sr);
  const VerilogNames bias_names = verilog_names(bias);
  const VerilogNames wrap_names = verilog_names(wrap);
  const VerilogNames misr_names = verilog_names(misr);

  // ---- top module -------------------------------------------------------
  const std::string top_name = legalize_verilog_identifier(opts.top_name);
  std::ostringstream top;
  top << "module " << top_name << " (clk, done, capture";
  for (unsigned i = 0; i < session.misr_stages; ++i) {
    top << ", sig_" << i;
  }
  top << ");\n  input clk;\n  output done;\n  output capture;\n";
  for (unsigned i = 0; i < session.misr_stages; ++i) {
    top << "  output sig_" << i << ";\n";
  }

  // Controller output wires, in the builder's documented marking order.
  std::vector<std::string> ctrl_wires = {
      "mode_init", "mode_seed", "mode_srinit", "mode_apply", "mode_shift",
      "done",      "capture",   "tpg_en",      "seed_load",  "ce",
      "scan_en",   "misr_en",   "misr_sel"};
  for (unsigned bit = 0; bit < lfsr_bits; ++bit) {
    ctrl_wires.push_back("seed_" + std::to_string(bit));
  }
  for (std::size_t k = 0; k < spec.num_hold_sets; ++k) {
    ctrl_wires.push_back("hold_" + std::to_string(k));
  }
  require(ctrl_wires.size() == ctrl.num_outputs(), "emit_bist_rtl",
          "internal: controller port order drifted from the builder");

  std::vector<std::string> wires;  // internal wires (ports excluded)
  for (const std::string& w : ctrl_wires) {
    if (w != "done" && w != "capture") wires.push_back(w);
  }
  wires.push_back("lfsr_sout");
  std::vector<std::string> sr_out_wires;
  for (std::size_t i = 0; i + 1 < spec.shift_register_size; ++i) {
    sr_out_wires.push_back("sr_q_" + std::to_string(i));
    wires.push_back(sr_out_wires.back());
  }
  std::vector<std::string> pi_wires, po_wires, so_wires, si_wires;
  for (std::size_t i = 0; i < cut.num_inputs(); ++i) {
    pi_wires.push_back("pi_" + std::to_string(i));
    wires.push_back(pi_wires.back());
  }
  for (std::size_t i = 0; i < cut.num_outputs(); ++i) {
    po_wires.push_back("po_" + std::to_string(i));
    wires.push_back(po_wires.back());
  }
  for (std::size_t ch = 0; ch < scan.num_chains(); ++ch) {
    so_wires.push_back("scan_out_" + std::to_string(ch));
    si_wires.push_back("scan_in_" + std::to_string(ch));
    wires.push_back(so_wires.back());
    wires.push_back(si_wires.back());
  }
  for (const std::string& w : wires) {
    top << "  wire " << w << ";\n";
  }
  top << "\n";

  emit_instance(top, ctrl, ctrl_names, "u_ctrl", {}, ctrl_wires);
  std::vector<std::string> lfsr_in = {"tpg_en", "seed_load"};
  for (unsigned bit = 0; bit < lfsr_bits; ++bit) {
    lfsr_in.push_back("seed_" + std::to_string(bit));
  }
  emit_instance(top, lfsr, lfsr_names, "u_lfsr", lfsr_in, {"lfsr_sout"});
  emit_instance(top, sr, sr_names, "u_sr", {"tpg_en", "lfsr_sout"},
                sr_out_wires);
  // The biasing network reads the TPG's D-side: the serial input plus the
  // shift register shifted down one (see builders.hpp).
  std::vector<std::string> bias_in = {"lfsr_sout"};
  for (std::size_t i = 0; i + 1 < spec.shift_register_size; ++i) {
    bias_in.push_back(sr_out_wires[i]);
  }
  emit_instance(top, bias, bias_names, "u_bias", bias_in, pi_wires);
  std::vector<std::string> wrap_in = pi_wires;
  wrap_in.push_back("ce");
  wrap_in.push_back("scan_en");
  for (const std::string& w : si_wires) wrap_in.push_back(w);
  for (std::size_t k = 0; k < spec.num_hold_sets; ++k) {
    wrap_in.push_back("hold_" + std::to_string(k));
  }
  std::vector<std::string> wrap_out = po_wires;
  for (const std::string& w : so_wires) wrap_out.push_back(w);
  emit_instance(top, wrap, wrap_names, "u_cut", wrap_in, wrap_out);
  std::vector<std::string> misr_in = {"misr_en", "misr_sel"};
  for (const std::string& w : po_wires) misr_in.push_back(w);
  for (const std::string& w : so_wires) misr_in.push_back(w);
  std::vector<std::string> misr_out;
  for (unsigned i = 0; i < session.misr_stages; ++i) {
    misr_out.push_back("sig_" + std::to_string(i));
  }
  emit_instance(top, misr, misr_names, "u_misr", misr_in, misr_out);
  // Close the circular-shift loop; zeros shift in during circuit init.
  for (std::size_t ch = 0; ch < scan.num_chains(); ++ch) {
    top << "  and g_scan_in_" << ch << " (" << si_wires[ch] << ", "
        << so_wires[ch] << ", mode_shift);\n";
  }
  top << "endmodule\n";

  // ---- assemble ---------------------------------------------------------
  EmittedRtl result;
  result.top_name = top_name;
  result.verilog = write_verilog_module(ctrl) + "\n" +
                   write_verilog_module(lfsr) + "\n" +
                   write_verilog_module(sr) + "\n" +
                   write_verilog_module(bias) + "\n" +
                   write_verilog_module(wrap) + "\n" +
                   write_verilog_module(misr) + "\n" + top.str() + "\n" +
                   fbt_dff_model_verilog();

  RtlInventory& inv = result.inventory;
  inv.lfsr_bits = static_cast<unsigned>(lfsr.num_flops());
  inv.bias_gates = count_gates(bias, GateType::kAnd, GateType::kOr);
  inv.bias_gate_inputs = session.tpg.bias_bits;
  inv.cycle_counter_bits = spec.cycle_counter_bits;
  inv.shift_counter_bits = spec.shift_counter_bits;
  inv.segment_counter_bits = spec.segment_counter_bits;
  inv.sequence_counter_bits = spec.sequence_counter_bits;
  inv.seed_rom_entries = num_seeds;
  inv.seed_rom_bits = num_seeds * lfsr_bits;
  inv.with_hold = spec.num_hold_sets > 0;
  inv.hold_sets = spec.num_hold_sets;
  inv.set_counter_bits = inv.with_hold ? spec.set_counter_bits : 0;
  inv.decoder_outputs = spec.num_hold_sets;
  inv.srinit_counter_bits = spec.srinit_counter_bits;
  inv.shiftreg_flops = sr.num_flops();
  inv.misr_flops = misr.num_flops();
  inv.fsm_flops = 7;  // 6 one-hot mode registers + the power-up latch
  inv.cut_flops = wrap.num_flops();
  inv.cut_gates = wrap.num_gates();
  for (const Netlist* mod : {&ctrl, &lfsr, &sr, &bias, &wrap, &misr}) {
    inv.total_flops += mod->num_flops();
    inv.total_gates += mod->num_gates();
  }
  inv.total_gates += scan.num_chains();  // top-level scan-in gating ANDs

  RtlProbes& probes = result.probes;
  probes.mode = {"mode_init", "mode_seed", "mode_srinit", "mode_apply",
                 "mode_shift"};
  probes.done = "done";
  probes.capture = "capture";
  probes.pi = pi_wires;
  for (std::size_t f = 0; f < wrap.num_flops(); ++f) {
    probes.state.push_back("u_cut__" + wrap_names.net[wrap.flops()[f]]);
  }
  probes.misr = misr_out;
  return result;
}

std::vector<std::string> reconcile_inventory(const RtlInventory& inventory,
                                             const BistHardwarePlan& plan,
                                             bool allow_wider_sequence_counter) {
  std::vector<std::string> issues;
  auto check = [&issues](const char* field, std::uint64_t emitted,
                         std::uint64_t planned) {
    if (emitted != planned) {
      std::ostringstream msg;
      msg << field << ": emitted " << emitted << " vs planned " << planned;
      issues.push_back(msg.str());
    }
  };
  check("lfsr_bits", inventory.lfsr_bits, plan.lfsr_bits);
  check("bias_gates", inventory.bias_gates, plan.bias_gates);
  check("bias_gate_inputs", inventory.bias_gate_inputs, plan.bias_gate_inputs);
  check("cycle_counter_bits", inventory.cycle_counter_bits,
        plan.cycle_counter_bits);
  check("shift_counter_bits", inventory.shift_counter_bits,
        plan.shift_counter_bits);
  check("segment_counter_bits", inventory.segment_counter_bits,
        plan.segment_counter_bits);
  if (allow_wider_sequence_counter) {
    if (inventory.sequence_counter_bits < plan.sequence_counter_bits) {
      std::ostringstream msg;
      msg << "sequence_counter_bits: emitted " << inventory.sequence_counter_bits
          << " narrower than planned " << plan.sequence_counter_bits;
      issues.push_back(msg.str());
    }
  } else {
    check("sequence_counter_bits", inventory.sequence_counter_bits,
          plan.sequence_counter_bits);
  }
  check("seed_rom_bits", inventory.seed_rom_bits, plan.seed_rom_bits);
  check("with_hold", inventory.with_hold ? 1 : 0, plan.with_hold ? 1 : 0);
  check("hold_sets", inventory.hold_sets, plan.hold_sets);
  check("set_counter_bits", inventory.set_counter_bits, plan.set_counter_bits);
  check("decoder_outputs", inventory.decoder_outputs, plan.decoder_outputs);
  return issues;
}

}  // namespace fbt
