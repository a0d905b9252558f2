#include "fault/parallel_fault_sim.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

TestSet random_tests(const Netlist& nl, std::size_t count, std::uint64_t seed) {
  Pcg32 rng(seed);
  TestSet tests;
  for (std::size_t i = 0; i < count; ++i) {
    BroadsideTest t;
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.scan_state.push_back(rng.chance(1, 2));
    }
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
      t.v1.push_back(rng.chance(1, 2));
      t.v2.push_back(rng.chance(1, 2));
    }
    tests.push_back(std::move(t));
  }
  return tests;
}

std::vector<std::size_t> thread_counts_under_test() {
  const std::size_t hw = jobs::JobSystem::resolve_threads(0);
  std::vector<std::size_t> counts = {1, 2};
  if (hw != 1 && hw != 2) counts.push_back(hw);
  return counts;
}

// Acceptance criterion: bit-identical detect counts for num_threads in
// {1, 2, hardware_concurrency} on every registry benchmark.
TEST(ParallelFaultSim, MatchesSerialOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    // Small circuits get several blocks; big ones one block to bound runtime.
    const std::size_t num_tests = spec.num_gates <= 1000 ? 130 : 64;
    const TestSet tests = random_tests(nl, num_tests, spec.seed + 1);

    BroadsideFaultSim serial(nl);
    std::vector<std::uint32_t> serial_counts(faults.size(), 0);
    const std::size_t serial_new = serial.grade(tests, faults, serial_counts, 2);

    for (const std::size_t threads : thread_counts_under_test()) {
      ParallelBroadsideFaultSim parallel(nl, threads);
      std::vector<std::uint32_t> counts(faults.size(), 0);
      const std::size_t fresh = parallel.grade(tests, faults, counts, 2);
      EXPECT_EQ(fresh, serial_new) << spec.name << " threads=" << threads;
      EXPECT_EQ(counts, serial_counts) << spec.name << " threads=" << threads;
    }
  }
}

// Provenance merge criterion: the parallel grade must report the same
// first-detect hits (fault, test) and per-block stats as the serial walk,
// for every thread count -- attribution is part of the deterministic output.
TEST(ParallelFaultSim, ProvenanceMatchesSerialOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    const std::size_t num_tests = spec.num_gates <= 1000 ? 130 : 64;
    const TestSet tests = random_tests(nl, num_tests, spec.seed + 5);

    BroadsideFaultSim serial(nl);
    std::vector<std::uint32_t> serial_counts(faults.size(), 0);
    GradeProvenance serial_prov;
    serial.grade(tests, faults, serial_counts, 2, &serial_prov);
    ASSERT_FALSE(serial_prov.first_hits.empty()) << spec.name;

    for (const std::size_t threads : thread_counts_under_test()) {
      ParallelBroadsideFaultSim parallel(nl, threads);
      std::vector<std::uint32_t> counts(faults.size(), 0);
      GradeProvenance prov;
      parallel.grade(tests, faults, counts, 2, &prov);
      EXPECT_EQ(prov.first_hits, serial_prov.first_hits)
          << spec.name << " threads=" << threads;
      EXPECT_EQ(prov.blocks, serial_prov.blocks)
          << spec.name << " threads=" << threads;
    }
  }
}

TEST(ParallelFaultSim, ProvenanceOnlyRecordsFreshFirstDetections) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 96, 23);

  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  GradeProvenance first_pass;
  serial.grade(tests, faults, counts, 4, &first_pass);
  // Second grade of the same tests: every fault already has credit, so no
  // fault is "first detected" again.
  GradeProvenance second_pass;
  serial.grade(tests, faults, counts, 4, &second_pass);
  EXPECT_FALSE(first_pass.first_hits.empty());
  EXPECT_TRUE(second_pass.first_hits.empty());

  // First hits are sorted by fault index and name a test inside the set.
  for (std::size_t i = 1; i < first_pass.first_hits.size(); ++i) {
    EXPECT_LT(first_pass.first_hits[i - 1].fault, first_pass.first_hits[i].fault);
  }
  for (const FirstDetectHit& hit : first_pass.first_hits) {
    EXPECT_LT(hit.test, tests.size());
  }
}

// Regression for the provenance merge when shards exhaust at different
// blocks: a shard whose faults all start saturated loads zero blocks and
// contributes nothing, so the merged block list must come from whichever
// shard walked furthest -- matching the serial walk over the same initial
// credit, not the union padded with phantom entries or the intersection
// truncated to the earliest-exiting shard.
TEST(ParallelFaultSim, ProvenanceBlocksMergeAcrossEarlyExhaustingShards) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 130, 29);  // three blocks
  const std::size_t half = faults.size() / 2;

  // Saturate one half of the fault list up front; with two threads that
  // half is (most of) one shard, which exhausts before loading any block.
  for (const bool saturate_low : {true, false}) {
    std::vector<std::uint32_t> init(faults.size(), 0);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if ((f < half) == saturate_low) init[f] = 4;
    }

    BroadsideFaultSim serial(nl);
    std::vector<std::uint32_t> serial_counts = init;
    GradeProvenance serial_prov;
    serial.grade(tests, faults, serial_counts, 4, &serial_prov);
    ASSERT_GT(serial_prov.blocks.size(), 1u);  // survivors span blocks

    for (const std::size_t threads : thread_counts_under_test()) {
      ParallelBroadsideFaultSim parallel(nl, threads);
      std::vector<std::uint32_t> counts = init;
      GradeProvenance prov;
      parallel.grade(tests, faults, counts, 4, &prov);
      EXPECT_EQ(counts, serial_counts)
          << "threads=" << threads << " low=" << saturate_low;
      EXPECT_EQ(prov.first_hits, serial_prov.first_hits)
          << "threads=" << threads << " low=" << saturate_low;
      EXPECT_EQ(prov.blocks, serial_prov.blocks)
          << "threads=" << threads << " low=" << saturate_low;
    }
  }
}

TEST(ParallelFaultSim, ZeroThreadsResolvesToHardwareConcurrency) {
  const Netlist nl = make_s27();
  ParallelBroadsideFaultSim sim(nl, 0);
  EXPECT_EQ(sim.num_threads(), jobs::JobSystem::resolve_threads(0));
}

TEST(ParallelFaultSim, CarriesDetectionCreditInAndOut) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 96, 3);

  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> serial_counts(faults.size(), 0);
  serial.grade(tests, faults, serial_counts, 4);
  const std::size_t serial_more =
      serial.grade(tests, faults, serial_counts, 4);

  ParallelBroadsideFaultSim parallel(nl, 2);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  parallel.grade(tests, faults, counts, 4);
  EXPECT_EQ(parallel.grade(tests, faults, counts, 4), serial_more);
  EXPECT_EQ(counts, serial_counts);
}

class GradeEdgeCases : public ::testing::TestWithParam<std::size_t> {};

// Block-boundary test counts: 1, 63, 64, 65 tests (and a 3-block set).
TEST_P(GradeEdgeCases, SerialAndParallelAgreeAtBlockBoundaries) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, GetParam(), 11);

  for (const std::uint32_t limit : {1u, 3u}) {
    BroadsideFaultSim serial(nl);
    std::vector<std::uint32_t> serial_counts(faults.size(), 0);
    const std::size_t serial_new =
        serial.grade(tests, faults, serial_counts, limit);

    ParallelBroadsideFaultSim parallel(nl, 2);
    std::vector<std::uint32_t> counts(faults.size(), 0);
    EXPECT_EQ(parallel.grade(tests, faults, counts, limit), serial_new);
    EXPECT_EQ(counts, serial_counts);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, GradeEdgeCases,
                         ::testing::Values(1u, 63u, 64u, 65u, 130u));

TEST(GradeEdgeCases, AllFaultsDroppedEarlySkipsRemainingBlocks) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  // Saturate every fault up front: grade must return 0, change nothing, and
  // load no blocks (the active list starts empty).
  const TestSet tests = random_tests(nl, 256, 13);
  std::vector<std::uint32_t> counts(faults.size(), 1);
  const std::vector<std::uint32_t> before = counts;

  BroadsideFaultSim serial(nl);
  EXPECT_EQ(serial.grade(tests, faults, counts, 1), 0u);
  EXPECT_EQ(counts, before);

  ParallelBroadsideFaultSim parallel(nl, 2);
  EXPECT_EQ(parallel.grade(tests, faults, counts, 1), 0u);
  EXPECT_EQ(counts, before);
}

TEST(GradeEdgeCases, DroppedFaultsStopAccumulatingMidSet) {
  // detect_limit == 1: every fault detected by an early block must keep
  // exactly count 1 no matter how many later tests also detect it.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  TestSet tests = random_tests(nl, 64, 17);
  const std::size_t base = tests.size();
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);  // repeat

  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  serial.grade(tests, faults, counts, 1);
  for (const std::uint32_t c : counts) EXPECT_LE(c, 1u);

  ParallelBroadsideFaultSim parallel(nl, 2);
  std::vector<std::uint32_t> pcounts(faults.size(), 0);
  parallel.grade(tests, faults, pcounts, 1);
  EXPECT_EQ(pcounts, counts);
}

}  // namespace
}  // namespace fbt
