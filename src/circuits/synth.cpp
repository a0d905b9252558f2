#include "circuits/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string_view>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

/// Formats "<prefix><index>" into a reusable stack buffer. The netlist
/// interns the view into its name arena, so no per-node std::string is
/// allocated on the emit path (at 1M gates that is 1M saved heap churns).
struct NameBuf {
  char buf[32];
  std::string_view format(const char* prefix, std::size_t index) {
    const int n = std::snprintf(buf, sizeof(buf), "%s%zu", prefix, index);
    return {buf, static_cast<std::size_t>(n)};
  }
};

/// 10% one, 58% two, 24% three and 8% four fanins: a third of the gates
/// are wider than two inputs, as in synthesized netlists.
std::size_t pick_fanin_count(Pcg32& rng) {
  const std::uint32_t r = rng.below(100);
  if (r < 10) return 1;
  if (r < 68) return 2;
  if (r < 92) return 3;
  return 4;
}

/// Picks the gate function over already-chosen fanins so that the estimated
/// output signal probability stays near 1/2. Unconstrained random typing
/// drives probabilities to the rails within a few levels (an AND3 of p=0.5
/// inputs is 1 only 12.5% of the time), which leaves most of the circuit
/// static under any stimulus -- unlike real synthesized logic, whose signal
/// probabilities are roughly balanced.
GateType pick_gate_type(Pcg32& rng, unsigned parity_percent,
                        std::span<const double> fanin_probs,
                        double& out_prob) {
  if (fanin_probs.size() == 1) {
    out_prob = rng.chance(3, 4) ? 1.0 - fanin_probs[0] : fanin_probs[0];
    return out_prob == fanin_probs[0] ? GateType::kBuf : GateType::kNot;
  }
  double p_and = 1.0;
  double p_or = 1.0;
  double p_xor = 0.0;
  for (const double p : fanin_probs) {
    p_and *= p;
    p_or *= 1.0 - p;
    p_xor = p_xor * (1.0 - p) + (1.0 - p_xor) * p;
  }
  p_or = 1.0 - p_or;

  if (rng.below(100) < parity_percent) {
    out_prob = rng.chance(1, 2) ? p_xor : 1.0 - p_xor;
    return out_prob == p_xor ? GateType::kXor : GateType::kXnor;
  }

  struct Candidate {
    GateType type;
    double prob;
  };
  const Candidate candidates[] = {{GateType::kAnd, p_and},
                                  {GateType::kNand, 1.0 - p_and},
                                  {GateType::kOr, p_or},
                                  {GateType::kNor, 1.0 - p_or}};
  // Prefer candidates whose output probability stays balanced; among those,
  // choose randomly so gate-type mix stays diverse.
  std::size_t picks[4];
  std::size_t npicks = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (candidates[i].prob >= 0.30 && candidates[i].prob <= 0.70) {
      picks[npicks++] = i;
    }
  }
  std::size_t chosen;
  if (npicks > 0) {
    chosen = picks[rng.below(static_cast<std::uint32_t>(npicks))];
  } else {
    chosen = 0;
    double best = 1.0;
    for (std::size_t i = 0; i < 4; ++i) {
      const double dist = std::abs(candidates[i].prob - 0.5);
      if (dist < best) {
        best = dist;
        chosen = i;
      }
    }
  }
  out_prob = candidates[chosen].prob;
  return candidates[chosen].type;
}

}  // namespace

Netlist generate_synthetic(const SynthParams& params) {
  require(params.num_inputs >= 1, "generate_synthetic",
          "need at least one primary input");
  require(params.num_outputs >= 1, "generate_synthetic",
          "need at least one primary output");
  require(params.num_gates >= params.num_inputs + params.num_flops,
          "generate_synthetic",
          "gate budget must cover one use of every input and state variable");
  require(params.num_gates >= params.num_outputs, "generate_synthetic",
          "gate budget must cover the primary outputs");

  Pcg32 rng(params.seed, 0x9e3779b97f4a7c15ULL);
  Netlist netlist(params.name);
  NameBuf name;

  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < params.num_inputs; ++i) {
    sources.push_back(netlist.add_input(name.format("pi", i)));
  }
  std::vector<NodeId> flops;
  for (std::size_t i = 0; i < params.num_flops; ++i) {
    const NodeId ff = netlist.add_dff(name.format("ff", i));
    flops.push_back(ff);
    sources.push_back(ff);
  }

  // Queue of sources that must still acquire a fanout; consumed first so every
  // primary input and state variable drives logic.
  std::vector<NodeId> unused_sources = sources;
  // Shuffle so input cones interleave inputs and state variables.
  for (std::size_t i = unused_sources.size(); i > 1; --i) {
    std::swap(unused_sources[i - 1], unused_sources[rng.below(
                                         static_cast<std::uint32_t>(i))]);
  }
  std::size_t next_unused = 0;

  std::vector<std::uint32_t> fanout_count(netlist.size() + params.num_gates, 0);
  std::vector<unsigned> level(netlist.size() + params.num_gates, 0);
  // Estimated signal probability per node (sources balanced at 1/2).
  std::vector<double> prob(netlist.size() + params.num_gates, 0.5);
  std::vector<NodeId> gates;
  gates.reserve(params.num_gates);

  const unsigned max_depth =
      params.max_depth != 0
          ? params.max_depth
          : std::max<unsigned>(
                10, std::min<unsigned>(
                        28, static_cast<unsigned>(params.num_gates / 120)));

  // Layered construction: each gate is built toward a target level drawn
  // from [1, max_depth], its first fanin taken from the level just below
  // (realizing the level) and the rest from any shallower level. Fanout-free
  // nodes are preferred at every draw, so logic cones close and dead logic
  // stays negligible; only sink-bound gates (absorbed by flop D inputs and
  // primary outputs) are allowed at the cap itself.
  std::vector<std::vector<NodeId>> by_level(max_depth + 1);
  by_level[0] = sources;
  // Fanout-free nodes per level, with lazy deletion: nodes acquire fanout
  // between insertion and draw, so entries are validated when drawn.
  std::vector<std::vector<NodeId>> free_by_level(max_depth + 1);
  std::size_t cap_budget = params.num_flops + params.num_outputs;

  // Draws a node at `lvl`, strongly preferring fanout-free entries.
  auto draw_at = [&](unsigned lvl) -> NodeId {
    auto& free_pool = free_by_level[lvl];
    while (!free_pool.empty() && rng.chance(85, 100)) {
      const std::size_t i =
          rng.below(static_cast<std::uint32_t>(free_pool.size()));
      const NodeId cand = free_pool[i];
      free_pool[i] = free_pool.back();
      free_pool.pop_back();
      if (fanout_count[cand] == 0) return cand;
    }
    const auto& pool = by_level[lvl];
    return pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
  };

  // Scratch buffers reused across all gates: the emit loop performs no
  // per-gate heap allocation (fanins and probabilities are spans into these,
  // the name is a stack buffer, and add_gate copies into the arena/CSR).
  std::vector<NodeId> fanins;
  std::vector<double> fanin_probs;
  fanins.reserve(8);
  fanin_probs.reserve(8);

  for (std::size_t g = 0; g < params.num_gates; ++g) {
    const std::size_t nfanin = pick_fanin_count(rng);

    // Target level: uniform over [1, max_depth], but the cap level only
    // while sinks remain to absorb it, and never above the deepest populated
    // level + 1.
    unsigned target = 1 + rng.below(max_depth);
    if (target == max_depth && cap_budget == 0) --target;
    while (target > 1 && by_level[target - 1].empty()) --target;

    fanins.clear();
    // First fanin: pending unused source, or a node at target - 1.
    if (next_unused < unused_sources.size()) {
      fanins.push_back(unused_sources[next_unused++]);
    } else {
      fanins.push_back(draw_at(target - 1));
    }
    for (int attempts = 0; fanins.size() < nfanin && attempts < 24;
         ++attempts) {
      // Remaining fanins from any level < target (uniform level choice,
      // which yields both local structure and long reconvergent arcs),
      // preferring levels that still have fanout-free nodes to absorb.
      unsigned lvl_choice = rng.below(target);
      for (unsigned probe = 0; probe < target; ++probe) {
        const unsigned l = (lvl_choice + probe) % target;
        if (!free_by_level[l].empty()) {
          lvl_choice = l;
          break;
        }
      }
      if (by_level[lvl_choice].empty()) lvl_choice = 0;
      const NodeId f = draw_at(lvl_choice);
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) {
        fanins.push_back(f);
      }
      // On repeated collisions (tiny circuits) accept fewer fanins.
    }

    unsigned lvl = 0;
    fanin_probs.clear();
    for (const NodeId f : fanins) {
      ++fanout_count[f];
      lvl = std::max(lvl, level[f] + 1);
      fanin_probs.push_back(prob[f]);
    }
    if (lvl >= max_depth && cap_budget > 0) --cap_budget;
    double out_prob = 0.5;
    const GateType type =
        pick_gate_type(rng, params.parity_percent, fanin_probs, out_prob);
    const NodeId id = netlist.add_gate(type, name.format("g", g), fanins);
    level[id] = lvl;
    prob[id] = out_prob;
    const unsigned bucket = std::min<unsigned>(lvl, max_depth);
    by_level[bucket].push_back(id);
    if (bucket < max_depth) free_by_level[bucket].push_back(id);
    gates.push_back(id);
  }

  // Next-state functions: prefer fanout-free gates with high index (deep
  // logic), falling back to random gates from the upper half.
  std::vector<NodeId> free_gates;
  for (const NodeId g : gates) {
    if (fanout_count[g] == 0) free_gates.push_back(g);
  }
  std::size_t free_cursor = free_gates.size();
  auto take_sink = [&]() -> NodeId {
    if (free_cursor > 0) return free_gates[--free_cursor];
    const std::size_t half = gates.size() / 2;
    return gates[half + rng.below(static_cast<std::uint32_t>(
                             gates.size() - half))];
  };
  for (const NodeId ff : flops) {
    const NodeId d = take_sink();
    ++fanout_count[d];
    netlist.set_dff_input(ff, d);
  }

  // Primary outputs: first the remaining fanout-free gates, then distinct
  // random gates.
  std::vector<NodeId> po_candidates(free_gates.begin(),
                                    free_gates.begin() + free_cursor);
  std::vector<std::uint8_t> taken(netlist.size(), 0);
  std::size_t marked = 0;
  for (const NodeId g : po_candidates) {
    if (marked == params.num_outputs) break;
    netlist.mark_output(g);
    taken[g] = 1;
    ++marked;
  }
  while (marked < params.num_outputs) {
    const NodeId g =
        gates[rng.below(static_cast<std::uint32_t>(gates.size()))];
    if (taken[g]) continue;
    netlist.mark_output(g);
    taken[g] = 1;
    ++marked;
  }

  netlist.finalize();
  return netlist;
}

Netlist make_buffers_block(std::size_t width) {
  require(width >= 1, "make_buffers_block", "width must be >= 1");
  Netlist netlist("buffers" + std::to_string(width));
  NameBuf name;
  for (std::size_t i = 0; i < width; ++i) {
    const NodeId pi = netlist.add_input(name.format("pi", i));
    const NodeId buf =
        netlist.add_gate(GateType::kBuf, name.format("po", i), {pi});
    netlist.mark_output(buf);
  }
  netlist.finalize();
  return netlist;
}

}  // namespace fbt
