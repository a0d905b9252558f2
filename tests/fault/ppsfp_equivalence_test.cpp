// PPSFP packed-grading equivalence suite.
//
// The serial engine (fault_pack_width == 1, one fault at a time, 64 tests
// per word) is the reference; the PPSFP engine (up to 64 faults per word
// against the shared good-machine trace) must reproduce its detect counts
// and first-detect provenance bit for bit -- at every pack width and every
// walker thread count, on every registry benchmark.
#include "fault/fault_sim.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "jobs/job_system.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
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

constexpr std::uint32_t kWidths[] = {8, 64};

// Detect counts and first-detect provenance identical to the serial engine
// for pack widths {8, 64} x threads {1, 2, hw} on every registry benchmark,
// at a dropping limit (1) and an n-detect limit (3).
TEST(PpsfpEquivalence, GradeMatchesSerialOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    // Small circuits get several blocks; big ones one block to bound runtime.
    const std::size_t num_tests = spec.num_gates <= 1000 ? 130 : 64;
    const TestSet tests = random_tests(nl, num_tests, spec.seed + 9);

    for (const std::uint32_t limit : {1u, 3u}) {
      BroadsideFaultSim serial(nl);
      std::vector<std::uint32_t> serial_counts(faults.size(), 0);
      GradeProvenance serial_prov;
      const std::size_t serial_new =
          serial.grade(tests, faults, serial_counts, limit, &serial_prov);

      for (const std::uint32_t width : kWidths) {
        for (const std::size_t threads : thread_counts_under_test()) {
          BroadsideFaultSim packed(nl, width, threads);
          std::vector<std::uint32_t> counts(faults.size(), 0);
          GradeProvenance prov;
          const std::size_t fresh =
              packed.grade(tests, faults, counts, limit, &prov);
          EXPECT_EQ(fresh, serial_new) << spec.name << " width=" << width
                                       << " threads=" << threads
                                       << " limit=" << limit;
          EXPECT_EQ(counts, serial_counts)
              << spec.name << " width=" << width << " threads=" << threads
              << " limit=" << limit;
          EXPECT_EQ(prov.first_hits, serial_prov.first_hits)
              << spec.name << " width=" << width << " threads=" << threads
              << " limit=" << limit;
          EXPECT_EQ(prov.blocks, serial_prov.blocks)
              << spec.name << " width=" << width << " threads=" << threads
              << " limit=" << limit;
        }
      }
    }
  }
}

// Grades `tests` from `init` credit with the serial reference and with the
// pack-64 engine at each of `thread_counts`, and expects identical returns,
// counts and provenance.
void expect_threads_match_serial(
    const Netlist& nl, const TransitionFaultList& faults, const TestSet& tests,
    const std::vector<std::uint32_t>& init, std::uint32_t limit,
    const std::vector<std::size_t>& thread_counts = thread_counts_under_test()) {
  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> serial_counts = init;
  GradeProvenance serial_prov;
  const std::size_t serial_new =
      serial.grade(tests, faults, serial_counts, limit, &serial_prov);
  for (const std::size_t threads : thread_counts) {
    BroadsideFaultSim packed(nl, 64, threads);
    std::vector<std::uint32_t> counts = init;
    GradeProvenance prov;
    EXPECT_EQ(packed.grade(tests, faults, counts, limit, &prov), serial_new)
        << "threads=" << threads;
    EXPECT_EQ(counts, serial_counts) << "threads=" << threads;
    EXPECT_EQ(prov.first_hits, serial_prov.first_hits)
        << "threads=" << threads;
    EXPECT_EQ(prov.blocks, serial_prov.blocks) << "threads=" << threads;
  }
}

// s298's collapsed list spans several 64-fault groups, so two or more
// walkers really split it (s27's fits in one group and always runs inline).
class ThreadedWalk : public ::testing::Test {
 protected:
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  void SetUp() override { ASSERT_GE(faults.size(), 3u * 64); }
};

TEST_F(ThreadedWalk, CarriesDetectionCreditInAndOut) {
  const TestSet tests = random_tests(nl, 96, 3);
  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> serial_counts(faults.size(), 0);
  serial.grade(tests, faults, serial_counts, 4);
  const std::size_t serial_more = serial.grade(tests, faults, serial_counts, 4);

  for (const std::size_t threads : thread_counts_under_test()) {
    BroadsideFaultSim packed(nl, 64, threads);
    std::vector<std::uint32_t> counts(faults.size(), 0);
    packed.grade(tests, faults, counts, 4);
    GradeProvenance second;
    EXPECT_EQ(packed.grade(tests, faults, counts, 4, &second), serial_more)
        << "threads=" << threads;
    EXPECT_EQ(counts, serial_counts) << "threads=" << threads;
    // Every fault already carries credit, so none is first-detected again.
    EXPECT_TRUE(second.first_hits.empty()) << "threads=" << threads;
  }
}

class ThreadedWalkBlocks : public ThreadedWalk,
                           public ::testing::WithParamInterface<std::size_t> {};

// Block-boundary test counts: 1, 63, 64, 65 tests and a 3-block set.
TEST_P(ThreadedWalkBlocks, MatchesSerialAtBlockBoundaries) {
  const TestSet tests = random_tests(nl, GetParam(), 11);
  const std::vector<std::uint32_t> zero(faults.size(), 0);
  for (const std::uint32_t limit : {1u, 3u}) {
    expect_threads_match_serial(nl, faults, tests, zero, limit);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, ThreadedWalkBlocks,
                         ::testing::Values(1u, 63u, 64u, 65u, 130u));

TEST_F(ThreadedWalk, AllFaultsSaturatedLoadsNoBlock) {
  // Every fault starts at the limit: grade returns 0, changes nothing and
  // reports no block.
  const TestSet tests = random_tests(nl, 256, 13);
  const std::vector<std::uint32_t> before(faults.size(), 1);
  for (const std::size_t threads : thread_counts_under_test()) {
    BroadsideFaultSim packed(nl, 64, threads);
    std::vector<std::uint32_t> counts = before;
    GradeProvenance prov;
    EXPECT_EQ(packed.grade(tests, faults, counts, 1, &prov), 0u);
    EXPECT_EQ(counts, before);
    EXPECT_TRUE(prov.blocks.empty());
  }
}

TEST_F(ThreadedWalk, DroppedFaultsStopAccumulatingMidSet) {
  // Limit 1 over a repeated test set: a fault detected early keeps exactly
  // count 1 however many later tests also detect it.
  TestSet tests = random_tests(nl, 64, 17);
  const std::size_t base = tests.size();
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);
  expect_threads_match_serial(nl, faults, tests,
                              std::vector<std::uint32_t>(faults.size(), 0), 1);
}

// One half of the list starts saturated, so the active list -- and with it
// the group ranges the walkers split -- covers only the other half, and the
// survivors still span several blocks.
TEST_F(ThreadedWalk, SaturatedHalfOfTheFaultList) {
  const TestSet tests = random_tests(nl, 130, 29);
  const std::size_t half = faults.size() / 2;
  for (const bool saturate_low : {true, false}) {
    std::vector<std::uint32_t> init(faults.size(), 0);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if ((f < half) == saturate_low) init[f] = 4;
    }
    SCOPED_TRACE(saturate_low ? "low half saturated" : "high half saturated");
    expect_threads_match_serial(nl, faults, tests, init, 4);
  }
}

// More walkers than 64-fault groups: the walk uses one walker per group (or
// runs inline under two groups) and still matches the serial engine.
TEST_F(ThreadedWalk, FaultListShorterThanOneGroupPerWorker) {
  const TestSet tests = random_tests(nl, 130, 31);
  for (const std::size_t size : {1u, 63u, 64u, 65u, 129u}) {
    const TransitionFaultList sub = TransitionFaultList::from_faults(
        {faults.faults().begin(),
         faults.faults().begin() + static_cast<std::ptrdiff_t>(size)});
    SCOPED_TRACE("faults=" + std::to_string(size));
    expect_threads_match_serial(nl, sub, tests,
                                std::vector<std::uint32_t>(size, 0), 2,
                                {4, 8});
  }
}

TEST_F(ThreadedWalk, ZeroThreadsMeansHardwareConcurrency) {
  expect_threads_match_serial(nl, faults, random_tests(nl, 65, 37),
                              std::vector<std::uint32_t>(faults.size(), 0), 2,
                              {0});
}

#if FBT_OBS_ENABLED
// Each 64-test block is loaded once, on the calling thread, whatever the
// walker count: the test and block counters do not scale with threads.
TEST_F(ThreadedWalk, TestsGradedAndBlocksLoadedIgnoreThreadCount) {
  const TestSet tests = random_tests(nl, 130, 43);
  const auto counter = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  std::vector<std::uint64_t> graded;
  std::vector<std::uint64_t> loaded;
  for (const std::size_t threads : thread_counts_under_test()) {
    BroadsideFaultSim packed(nl, 64, threads);
    std::vector<std::uint32_t> counts(faults.size(), 0);
    const std::uint64_t graded0 = counter("fault.tests_graded");
    const std::uint64_t loaded0 = counter("fault.blocks_loaded");
    packed.grade(tests, faults, counts, 3);
    graded.push_back(counter("fault.tests_graded") - graded0);
    loaded.push_back(counter("fault.blocks_loaded") - loaded0);
  }
  EXPECT_EQ(graded.front(), tests.size());
  EXPECT_EQ(loaded.front(), 3u);
  EXPECT_EQ(std::count(graded.begin(), graded.end(), graded.front()),
            static_cast<std::ptrdiff_t>(graded.size()));
  EXPECT_EQ(std::count(loaded.begin(), loaded.end(), loaded.front()),
            static_cast<std::ptrdiff_t>(loaded.size()));
}
#endif

// state2_override replaces the captured state between frames (the §4.3
// sequence-reduction path); the packed engine must honor it identically.
TEST(PpsfpEquivalence, State2OverrideMatchesSerial) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  TestSet tests = random_tests(nl, 96, 41);
  Pcg32 rng(42);
  for (std::size_t i = 0; i < tests.size(); i += 2) {
    // Every other test gets an arbitrary (possibly unreachable) s2.
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      tests[i].state2_override.push_back(rng.chance(1, 2));
    }
  }

  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> serial_counts(faults.size(), 0);
  GradeProvenance serial_prov;
  serial.grade(tests, faults, serial_counts, 3, &serial_prov);

  for (const std::uint32_t width : kWidths) {
    BroadsideFaultSim packed(nl, width);
    std::vector<std::uint32_t> counts(faults.size(), 0);
    GradeProvenance prov;
    packed.grade(tests, faults, counts, 3, &prov);
    EXPECT_EQ(counts, serial_counts) << "width=" << width;
    EXPECT_EQ(prov.first_hits, serial_prov.first_hits) << "width=" << width;
  }
}

// The single-query convenience must agree fault by fault, test by test.
TEST(PpsfpEquivalence, DetectsAgreesWithSerial) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  const TestSet tests = random_tests(nl, 24, 47);

  BroadsideFaultSim serial(nl);
  BroadsideFaultSim packed(nl, 64);
  for (const BroadsideTest& t : tests) {
    for (std::size_t f = 0; f < faults.size(); ++f) {
      EXPECT_EQ(packed.detects(t, faults.fault(f)),
                serial.detects(t, faults.fault(f)))
          << "fault " << f;
    }
  }
}

TEST(PpsfpEquivalence, PackWidthIsClampedToLaneRange) {
  const Netlist nl = make_s27();
  EXPECT_EQ(BroadsideFaultSim(nl, 0).fault_pack_width(), 1u);
  EXPECT_EQ(BroadsideFaultSim(nl, 1).fault_pack_width(), 1u);
  EXPECT_EQ(BroadsideFaultSim(nl, 17).fault_pack_width(), 17u);
  EXPECT_EQ(BroadsideFaultSim(nl, 200).fault_pack_width(), 64u);
}

#if FBT_OBS_ENABLED
TEST(PpsfpEquivalence, PackEfficiencyCountersTrackThePackedEngineOnly) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 64, 53);

  const auto groups = [] {
    return obs::registry().counter("fault.pack_groups_simulated").value();
  };
  const auto wasted = [] {
    return obs::registry().counter("fault.pack_lanes_wasted").value();
  };

  BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  const std::uint64_t groups0 = groups();
  serial.grade(tests, faults, counts, 3);
  EXPECT_EQ(groups(), groups0);  // serial engine never packs

  BroadsideFaultSim packed(nl, 64);
  std::fill(counts.begin(), counts.end(), 0);
  const std::uint64_t groups1 = groups();
  const std::uint64_t wasted1 = wasted();
  packed.grade(tests, faults, counts, 3);
  const std::uint64_t simulated = groups() - groups1;
  const std::uint64_t idle = wasted() - wasted1;
  EXPECT_GT(simulated, 0u);
  // Wasted lanes are bounded by the lanes offered: groups x width.
  EXPECT_LT(idle, simulated * 64);
}
#endif

}  // namespace
}  // namespace fbt
