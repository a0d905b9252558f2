// PPSFP packed-grading equivalence suite.
//
// The serial engine (fault_pack_width == 1, one fault at a time, 64 tests
// per word) is the reference; the PPSFP engine (up to 64 faults per word
// against the shared good-machine trace) must reproduce its detect counts
// and first-detect provenance bit for bit -- at every pack width, composed
// with every thread-sharding setting, on every registry benchmark.
#include "fault/parallel_fault_sim.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
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

// Acceptance criterion: detect counts and first-detect provenance identical
// to the serial engine for pack widths {1, 8, 64} x threads {1, 2, hw} on
// every registry benchmark, at a dropping limit (1) and an n-detect limit
// (3).
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
          ParallelBroadsideFaultSim packed(nl, threads, nullptr, width);
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
