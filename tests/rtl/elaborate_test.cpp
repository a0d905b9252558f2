// Unit tests for the structural-Verilog elaborator and its two-phase
// simulator: hand-written hierarchies, alias/constant assigns, error cases,
// and a full round-trip of write_verilog output simulated against SeqSim.
#include "rtl/elaborate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "netlist/export.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

const char* kToggleDesign = R"(
// A leaf whose flop toggles every cycle; the top ties its input high.
module leaf (clk, a, y);
  input clk;
  input a;
  output y;
  wire q;
  wire d;
  not g_d (d, q);
  fbt_dff dff_q (.clk(clk), .d(d), .q(q));
  xor g_y (y, q, a);
endmodule

module top2 (clk, o);
  input clk;
  output o;
  wire k;
  wire z;
  assign k = 1'b1;
  leaf u_l (.clk(clk), .a(k), .y(z));
  assign o = z;
endmodule
)";

TEST(Elaborate, FlattensHierarchyAndStepsIt) {
  const RtlDesign design = elaborate_verilog(kToggleDesign, "top2");
  EXPECT_EQ(design.netlist.num_flops(), 1u);
  EXPECT_EQ(design.netlist.num_inputs(), 0u);
  ASSERT_NE(design.node("o"), kNoNode);
  // Port binding and alias assigns merge nets: the leaf's output, the top
  // wire, and the top port are one node with every name preserved.
  EXPECT_EQ(design.node("o"), design.node("z"));
  EXPECT_EQ(design.node("o"), design.node("u_l__y"));
  EXPECT_EQ(design.node("k"), design.node("u_l__a"));

  RtlSim sim(design);
  // q powers up 0, a is tied 1: o = q ^ 1 toggles starting at 1.
  EXPECT_EQ(sim.value("o"), 1);
  sim.step();
  EXPECT_EQ(sim.value("o"), 0);
  EXPECT_EQ(sim.value("u_l__q"), 1);
  sim.step();
  EXPECT_EQ(sim.value("o"), 1);
}

TEST(Elaborate, TopLevelInputsBecomePrimaryInputs) {
  const std::string text =
      "module passthru (clk, a, b, y);\n"
      "  input clk;\n  input a;\n  input b;\n  output y;\n"
      "  and g_y (y, a, b);\nendmodule\n";
  const RtlDesign design = elaborate_verilog(text, "passthru");
  ASSERT_EQ(design.netlist.num_inputs(), 2u);
  RtlSim sim(design);
  EXPECT_EQ(sim.value("y"), 0);
  sim.set_value(design.node("a"), 1);
  sim.set_value(design.node("b"), 1);
  sim.settle();
  EXPECT_EQ(sim.value("y"), 1);
}

TEST(Elaborate, RejectsUnknownTopAndMultiplyDrivenNets) {
  EXPECT_THROW(elaborate_verilog(kToggleDesign, "nosuch"), Error);
  const std::string doubled =
      "module bad (clk, y);\n"
      "  input clk;\n  output y;\n  wire a;\n"
      "  buf g_1 (a, y);\n  not g_2 (a, y);\n  assign y = 1'b0;\nendmodule\n";
  EXPECT_THROW(elaborate_verilog(doubled, "bad"), Error);
}

TEST(Elaborate, SkipsTheBehavioralDffModel) {
  // write_verilog appends the behavioral fbt_dff cell; the elaborator must
  // treat it as a primitive rather than parse its body.
  const Netlist cut = load_benchmark("s27");
  const RtlDesign design = elaborate_verilog(write_verilog(cut), "s27");
  EXPECT_EQ(design.netlist.num_flops(), cut.num_flops());
  EXPECT_EQ(design.netlist.num_inputs(), cut.num_inputs());
  EXPECT_EQ(design.netlist.num_outputs(), cut.num_outputs());
  EXPECT_EQ(design.netlist.num_gates(), cut.num_gates());
}

// Round-trip: a benchmark written to Verilog, elaborated back, and stepped
// with the same stimulus must match SeqSim line-for-line on outputs and state.
TEST(Elaborate, RoundTrippedBenchmarkMatchesSeqSim) {
  for (const char* name : {"s27", "s298", "s526"}) {
    const Netlist cut = load_benchmark(name);
    const VerilogNames names = verilog_names(cut);
    const RtlDesign design = elaborate_verilog(write_verilog(cut), names.module_name);

    std::vector<NodeId> in_nodes;
    for (const NodeId id : cut.inputs()) {
      const NodeId node = design.node(names.net[id]);
      ASSERT_NE(node, kNoNode) << names.net[id];
      in_nodes.push_back(node);
    }
    std::vector<NodeId> out_nodes;
    for (std::size_t o = 0; o < cut.num_outputs(); ++o) {
      const NodeId node = design.node(names.out_port[o]);
      ASSERT_NE(node, kNoNode) << names.out_port[o];
      out_nodes.push_back(node);
    }
    std::vector<NodeId> flop_nodes;
    for (const NodeId id : cut.flops()) {
      const NodeId node = design.node(names.net[id]);
      ASSERT_NE(node, kNoNode) << names.net[id];
      flop_nodes.push_back(node);
    }

    SeqSim golden(cut);
    golden.load_reset_state();
    RtlSim sim(design);
    std::uint32_t lcg = 0xC0FFEEu;
    std::vector<std::uint8_t> pi(cut.num_inputs());
    for (std::size_t cycle = 0; cycle < 32; ++cycle) {
      for (std::size_t i = 0; i < pi.size(); ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        pi[i] = (lcg >> 17) & 1u;
        sim.set_value(in_nodes[i], pi[i]);
      }
      sim.settle();
      golden.step(pi);
      for (std::size_t o = 0; o < out_nodes.size(); ++o) {
        ASSERT_EQ(sim.value(out_nodes[o]), golden.value(cut.outputs()[o]))
            << name << " output " << o << " at cycle " << cycle;
      }
      sim.step();
      for (std::size_t f = 0; f < flop_nodes.size(); ++f) {
        ASSERT_EQ(sim.value(flop_nodes[f]), golden.state()[f])
            << name << " flop " << f << " at cycle " << cycle;
      }
    }
  }
}

// Satellite: identifier legalization/dedup must survive the round trip even
// for hostile .bench-style names (brackets, leading digits, keywords,
// mangling collisions).
TEST(Elaborate, LegalizedIdentifiersRoundTrip) {
  Netlist nl("2bad name");
  const NodeId a = nl.add_input("G1[3]");
  const NodeId b = nl.add_input("G1_3_");  // collides with legalized G1[3]
  const NodeId ff = nl.add_dff("wire");    // keyword
  const NodeId g = nl.add_gate(GateType::kXor, "9out", {a, ff});
  nl.set_dff_input(ff, nl.add_gate(GateType::kAnd, "a.b", {a, b}));
  nl.mark_output(g);
  nl.finalize();

  const VerilogNames names = verilog_names(nl);
  const RtlDesign design =
      elaborate_verilog(write_verilog(nl), names.module_name);
  EXPECT_EQ(design.netlist.num_inputs(), 2u);
  EXPECT_EQ(design.netlist.num_flops(), 1u);
  EXPECT_EQ(design.netlist.num_gates(), nl.num_gates());
  // Distinct nodes despite the mangling collision.
  EXPECT_NE(design.node(names.net[a]), design.node(names.net[b]));
  EXPECT_NE(design.node(names.net[g]), kNoNode);
}

/// The message elaborate_verilog refuses `text` with, or "" if it accepts it.
std::string elaborate_error(const std::string& text, const std::string& top) {
  try {
    (void)elaborate_verilog(text, top);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A one-input, one-output module `name` whose body is `body`.
std::string wrapper_module(const std::string& name, const std::string& body) {
  return "module " + name + " (a, y);\n  input a;\n  output y;\n" + body +
         "endmodule\n";
}

TEST(Elaborate, RejectsSelfInstantiation) {
  const std::string text = wrapper_module("m", "  m u (.a(a), .y(y));\n");
  EXPECT_NE(elaborate_error(text, "m").find("instantiates itself"),
            std::string::npos);
}

TEST(Elaborate, RejectsAnInstantiationCycle) {
  const std::string text =
      wrapper_module("ma", "  mb u (.a(a), .y(y));\n") +
      wrapper_module("mb", "  ma u (.a(a), .y(y));\n");
  EXPECT_NE(elaborate_error(text, "ma").find("instantiates itself"),
            std::string::npos);
}

TEST(Elaborate, RejectsADoublingChainPastTheCellCap) {
  // m0 is one inverter; m<k> chains two m<k-1>, so m<k> flattens to 2^k
  // inverters. m10 is an ordinary design; m21 is refused before it is built.
  std::string text = wrapper_module("m0", "  not g (y, a);\n");
  for (int k = 1; k <= 21; ++k) {
    const std::string child = "m" + std::to_string(k - 1);
    text += wrapper_module("m" + std::to_string(k),
                           "  wire w;\n  " + child + " u0 (.a(a), .y(w));\n  " +
                               child + " u1 (.a(w), .y(y));\n");
  }
  EXPECT_EQ(elaborate_verilog(text, "m10").netlist.num_gates(), 1024u);
  EXPECT_NE(elaborate_error(text, "m21").find("too large"),
            std::string::npos);
}

TEST(Elaborate, RejectsAHierarchyPastTheDepthCap) {
  std::string text = wrapper_module("d0", "  buf g (y, a);\n");
  for (std::size_t k = 1; k <= kMaxElaborateDepth + 1; ++k) {
    text += wrapper_module("d" + std::to_string(k),
                           "  d" + std::to_string(k - 1) +
                               " u (.a(a), .y(y));\n");
  }
  EXPECT_EQ(elaborate_error(text, "d" + std::to_string(kMaxElaborateDepth)),
            "");
  EXPECT_NE(elaborate_error(text, "d" + std::to_string(kMaxElaborateDepth + 1))
                .find("too deep"),
            std::string::npos);
}

TEST(Elaborate, UnusedTopInputsAreNetsAndUndrivenOutputsAreErrors) {
  const RtlDesign design = elaborate_verilog(
      "module t (a, b, y);\n  input a;\n  input b;\n  output y;\n"
      "  not g (y, a);\nendmodule\n",
      "t");
  EXPECT_EQ(design.netlist.num_inputs(), 2u);
  EXPECT_NE(design.node("b"), kNoNode);
  EXPECT_EQ(elaborate_error(
                "module u (a, y, z);\n  input a;\n  output y;\n  output z;\n"
                "  not g (y, a);\nendmodule\n",
                "u"),
            "elaborate_verilog: undriven output port");
}

}  // namespace
}  // namespace fbt
