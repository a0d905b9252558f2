// Microbenchmarks (google-benchmark) for the simulation kernels that
// dominate every experiment: bit-parallel evaluation, scalar and 64-lane
// sequential stepping (the three runners of the compiled gate program, on
// s5378 and spi), event-driven fault propagation, cube simulation, and the
// on-chip TPG. Also quantifies the bit-parallel vs scalar design decision
// called out in DESIGN.md.
//
//   bench_kernels [--benchmark_filter=REGEX] [--benchmark_min_time=SECONDS]
//                 [--benchmark_out=FILE --benchmark_out_format=json]
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bist/lfsr.hpp"
#include "bist/tpg.hpp"
#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "sim/bitsim.hpp"
#include "sim/cubesim.hpp"
#include "sim/packed_seqsim.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace {

const fbt::Netlist& circuit(const char* name = "s5378") {
  static std::map<std::string, fbt::Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, fbt::load_benchmark(name)).first;
  }
  return it->second;
}

// The three gate-program kernels report gate-evals (one per combinational
// gate per call, whatever the word width) as items processed, so their
// items_per_second compare across circuits.
void BM_BitSimEval64(benchmark::State& state, const char* name) {
  const fbt::Netlist& nl = circuit(name);
  fbt::BitSim sim(nl);
  fbt::Pcg32 rng(1);
  for (const fbt::NodeId pi : nl.inputs()) sim.set_value(pi, rng.next64());
  for (const fbt::NodeId ff : nl.flops()) sim.set_value(ff, rng.next64());
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK_CAPTURE(BM_BitSimEval64, s5378, "s5378");
BENCHMARK_CAPTURE(BM_BitSimEval64, spi, "spi");

void BM_SeqSimStep(benchmark::State& state, const char* name) {
  const fbt::Netlist& nl = circuit(name);
  fbt::SeqSim sim(nl);
  sim.load_reset_state();
  std::vector<std::uint8_t> pi(nl.num_inputs(), 0);
  fbt::Pcg32 rng(2);
  for (auto _ : state) {
    for (auto& b : pi) b = rng.chance(1, 2);
    benchmark::DoNotOptimize(sim.step(pi).toggled_lines);
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK_CAPTURE(BM_SeqSimStep, s5378, "s5378");
BENCHMARK_CAPTURE(BM_SeqSimStep, spi, "spi");

void BM_PackedSeqSimStep(benchmark::State& state, const char* name) {
  const fbt::Netlist& nl = circuit(name);
  fbt::PackedSeqSim sim(nl);
  const std::vector<std::uint8_t> reset(nl.num_flops(), 0);
  sim.load_broadcast(reset, {}, {}, false);
  std::vector<std::uint64_t> pi(nl.num_inputs(), 0);
  std::vector<std::uint32_t> toggles(fbt::PackedSeqSim::kLanes, 0);
  fbt::Pcg32 rng(5);
  for (auto _ : state) {
    for (auto& w : pi) w = rng.next64();
    sim.step(pi, toggles);
    benchmark::DoNotOptimize(toggles.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nl.num_gates());
}
BENCHMARK_CAPTURE(BM_PackedSeqSimStep, s5378, "s5378");
BENCHMARK_CAPTURE(BM_PackedSeqSimStep, spi, "spi");

void BM_FaultPropagate(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::BitSim sim(nl);
  fbt::Pcg32 rng(3);
  for (const fbt::NodeId pi : nl.inputs()) sim.set_value(pi, rng.next64());
  for (const fbt::NodeId ff : nl.flops()) sim.set_value(ff, rng.next64());
  sim.eval();
  for (auto _ : state) {
    const auto site = static_cast<fbt::NodeId>(
        rng.below(static_cast<std::uint32_t>(nl.size())));
    benchmark::DoNotOptimize(sim.fault_propagate(site, rng.next64()));
  }
}
BENCHMARK(BM_FaultPropagate);

void BM_GradeRandomTests(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  fbt::BroadsideFaultSim fsim(nl);
  fbt::Pcg32 rng(4);
  fbt::TestSet tests;
  for (int i = 0; i < 256; ++i) {
    fbt::BroadsideTest t;
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.scan_state.push_back(rng.chance(1, 2));
    }
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
      t.v1.push_back(rng.chance(1, 2));
      t.v2.push_back(rng.chance(1, 2));
    }
    tests.push_back(std::move(t));
  }
  for (auto _ : state) {
    std::vector<std::uint32_t> detect(faults.size(), 0);
    benchmark::DoNotOptimize(fsim.grade(tests, faults, detect, 1));
  }
  state.SetItemsProcessed(state.iterations() * tests.size());
}
BENCHMARK(BM_GradeRandomTests);

void BM_CubeSimEval(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::CubeSim sim(nl);
  sim.clear();
  sim.set_value(nl.inputs()[0], fbt::Val3::k1);
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.specified_next_state_count());
  }
}
BENCHMARK(BM_CubeSimEval);

void BM_TpgNextVector(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::Tpg tpg(nl, {});
  tpg.reseed(0x1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpg.next_vector());
  }
}
BENCHMARK(BM_TpgNextVector);

void BM_LfsrStep(benchmark::State& state) {
  fbt::Lfsr lfsr(32);
  lfsr.seed(0xcafe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lfsr.step());
  }
}
BENCHMARK(BM_LfsrStep);

}  // namespace
