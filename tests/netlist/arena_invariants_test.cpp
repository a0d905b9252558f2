// Pins the arena/SoA netlist refactor against the structural contract the
// per-gate-record implementation established: for every registry benchmark,
// the evaluation order is topological, levels derive from fanins, the fanout
// CSR is the exact transpose of the fanin CSR (duplicates preserved, rows in
// ascending consumer order), the absorbed eval CSR mirrors eval_order, the
// open-addressing name index resolves every interned name, and a .bench
// round-trip preserves node ids -- not just names. A million-gate smoke test
// pins the arena's bytes-per-gate so storage growth cannot creep back in.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"

namespace fbt {
namespace {

TEST(ArenaInvariants, RegistryEvalOrderIsTopological) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    std::vector<char> seen(nl.size(), 0);
    // Sources (inputs, flops, consts) are available before evaluation.
    for (NodeId id = 0; id < nl.size(); ++id) {
      const GateType t = nl.type(id);
      if (!is_combinational(t)) seen[id] = 1;
    }
    for (const NodeId id : nl.eval_order()) {
      for (const NodeId f : nl.fanins(id)) {
        EXPECT_TRUE(seen[f]) << spec.name << ": node " << nl.node_name(id)
                             << " evaluated before fanin " << nl.node_name(f);
      }
      EXPECT_FALSE(seen[id])
          << spec.name << ": node " << nl.node_name(id) << " evaluated twice";
      seen[id] = 1;
    }
    for (NodeId id = 0; id < nl.size(); ++id) {
      EXPECT_TRUE(seen[id])
          << spec.name << ": node " << nl.node_name(id) << " never evaluated";
    }
  }
}

TEST(ArenaInvariants, RegistryLevelsFollowFanins) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    unsigned max_seen = 0;
    for (NodeId id = 0; id < nl.size(); ++id) {
      if (!is_combinational(nl.type(id))) {
        EXPECT_EQ(nl.level(id), 0u) << spec.name << " source " << id;
        continue;
      }
      unsigned expect = 0;
      for (const NodeId f : nl.fanins(id)) {
        expect = std::max(expect, nl.level(f) + 1);
      }
      EXPECT_EQ(nl.level(id), expect) << spec.name << " node " << id;
      max_seen = std::max(max_seen, expect);
    }
    EXPECT_EQ(nl.max_level(), max_seen) << spec.name;
  }
}

TEST(ArenaInvariants, RegistryFanoutsAreFaninTranspose) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    // Transpose reference built the way the per-node-vector implementation
    // did: consumers appended in ascending node id, fanin-position order,
    // duplicates kept (a node feeding both legs of an XOR appears twice).
    std::vector<std::vector<NodeId>> expect(nl.size());
    for (NodeId id = 0; id < nl.size(); ++id) {
      for (const NodeId f : nl.fanins(id)) expect[f].push_back(id);
    }
    for (NodeId id = 0; id < nl.size(); ++id) {
      const auto got = nl.fanouts(id);
      ASSERT_EQ(got.size(), expect[id].size()) << spec.name << " node " << id;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k], expect[id][k])
            << spec.name << " node " << id << " fanout " << k;
      }
    }
  }
}

TEST(ArenaInvariants, RegistryEvalCsrMirrorsEvalOrder) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const auto entries = nl.eval_entries();
    const auto& order = nl.eval_order();
    ASSERT_EQ(entries.size(), order.size()) << spec.name;
    const NodeId* flat = nl.eval_fanin_ids();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const EvalEntry& e = entries[i];
      EXPECT_EQ(e.node, order[i]) << spec.name;
      EXPECT_EQ(e.type, nl.type(e.node)) << spec.name;
      const auto fanins = nl.fanins(e.node);
      ASSERT_EQ(e.count, fanins.size()) << spec.name << " node " << e.node;
      for (std::size_t k = 0; k < fanins.size(); ++k) {
        EXPECT_EQ(flat[e.first + k], fanins[k])
            << spec.name << " node " << e.node << " fanin " << k;
      }
    }
  }
}

TEST(ArenaInvariants, RegistryNameIndexResolvesEveryNode) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    for (NodeId id = 0; id < nl.size(); ++id) {
      const std::string_view name = nl.node_name(id);
      EXPECT_EQ(nl.find(name), id) << spec.name;
      // Heterogeneous lookup: a view into caller-owned storage that is not
      // the arena resolves identically (no std::string temporary needed).
      char buf[128];
      ASSERT_LT(name.size(), sizeof(buf));
      std::memcpy(buf, name.data(), name.size());
      EXPECT_EQ(nl.find(std::string_view(buf, name.size())), id) << spec.name;
    }
    EXPECT_EQ(nl.find("definitely_not_a_net_name"), kNoNode) << spec.name;
  }
}

TEST(ArenaInvariants, RegistryRoundTripPreservesNodeIds) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const Netlist rp = parse_bench(write_bench(nl), nl.name());
    // Id-for-id equality, not just name-set equality: cache keys, fault
    // lists, and detection matrices all index by NodeId.
    ASSERT_EQ(rp.size(), nl.size()) << spec.name;
    for (NodeId id = 0; id < nl.size(); ++id) {
      EXPECT_EQ(rp.node_name(id), nl.node_name(id)) << spec.name;
      EXPECT_EQ(rp.type(id), nl.type(id)) << spec.name;
    }
  }
}

TEST(ArenaSmoke, MillionGateBuildStaysWithinByteBudget) {
  SynthParams params;
  params.name = "arena_smoke_1m";
  params.num_inputs = 64;
  params.num_outputs = 32;
  params.num_flops = 100000;
  params.num_gates = 1000000;
  params.seed = 0x5ca1ab1eULL;
  const Netlist nl = generate_synthetic(params);
  ASSERT_TRUE(nl.finalized());
  EXPECT_EQ(nl.num_gates(), params.num_gates);
  // Pinned storage budget: the SoA arena (types, interned names, fanin CSR,
  // name index) runs ~37 bytes/gate and the full structure including the
  // fanout/eval CSRs, the compiled gate program, levels, and eval order
  // ~107 bytes/gate at this size.
  // The old per-gate-record layout was ~161 bytes/gate; the bound sits far
  // from both so only a real layout regression trips it.
  const double arena_per_gate = static_cast<double>(nl.arena_bytes()) /
                                static_cast<double>(nl.num_gates());
  const double total_per_gate = static_cast<double>(nl.footprint_bytes()) /
                                static_cast<double>(nl.num_gates());
  EXPECT_LT(arena_per_gate, 60.0);
  EXPECT_LT(total_per_gate, 120.0);
}

}  // namespace
}  // namespace fbt
