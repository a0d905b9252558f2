#include "fault/compaction.hpp"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "util/require.hpp"
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

std::size_t coverage_of(const Netlist& nl, const TestSet& tests,
                        const TransitionFaultList& faults) {
  BroadsideFaultSim sim(nl);
  std::vector<std::uint32_t> det(faults.size(), 0);
  sim.grade(tests, faults, det, 1);
  std::size_t covered = 0;
  for (const std::uint32_t c : det) covered += (c >= 1);
  return covered;
}

// Oracle: the detection-matrix group sweep reduce_groups replaced. Union
// each group's per-test fault lists, then walk the groups last to first and
// keep one iff its union holds a fault no kept group covers.
std::vector<std::size_t> oracle_reduce_groups(
    const PerTestFaults& per_test, std::size_t num_faults,
    const std::vector<std::size_t>& group_of, std::size_t num_groups) {
  std::vector<std::vector<std::uint32_t>> per_group(num_groups);
  for (std::size_t t = 0; t < per_test.size(); ++t) {
    auto& bucket = per_group[group_of[t]];
    bucket.insert(bucket.end(), per_test[t].begin(), per_test[t].end());
  }
  std::vector<std::uint8_t> covered(num_faults, 0);
  std::vector<std::size_t> kept;
  for (std::size_t g = num_groups; g-- > 0;) {
    const bool essential =
        std::any_of(per_group[g].begin(), per_group[g].end(),
                    [&](std::uint32_t f) { return covered[f] == 0; });
    if (!essential) continue;
    for (const std::uint32_t f : per_group[g]) covered[f] = 1;
    kept.push_back(g);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

class CompactionPasses
    : public ::testing::TestWithParam<std::uint64_t> {};  // RNG seeds

// Property: both passes preserve full coverage and never grow the set.
TEST_P(CompactionPasses, PreserveCoverage) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 150, GetParam());
  const std::size_t full = coverage_of(nl, tests, faults);

  using CompactionFn = std::vector<std::size_t> (*)(
      const Netlist&, const TestSet&, const TransitionFaultList&);
  for (const CompactionFn compaction :
       {static_cast<CompactionFn>(reverse_order_compaction),
        static_cast<CompactionFn>(forward_looking_compaction)}) {
    const auto kept = compaction(nl, tests, faults);
    EXPECT_LE(kept.size(), tests.size());
    TestSet reduced;
    for (const std::size_t t : kept) reduced.push_back(tests[t]);
    EXPECT_EQ(coverage_of(nl, reduced, faults), full);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPasses,
                         ::testing::Values(1u, 17u, 23u, 99u, 1234u));

TEST(Compaction, ForwardLookingNotWorseThanReverse) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::size_t fl_total = 0;
  std::size_t ro_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TestSet tests = random_tests(nl, 200, seed);
    fl_total += forward_looking_compaction(nl, tests, faults).size();
    ro_total += reverse_order_compaction(nl, tests, faults).size();
  }
  EXPECT_LE(fl_total, ro_total + 4);  // on average at least as good
}

TEST(Compaction, DropsRedundantDuplicates) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  TestSet tests = random_tests(nl, 40, 5);
  const std::size_t base = tests.size();
  // Duplicate the whole set: half must be droppable.
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);
  const auto kept = forward_looking_compaction(nl, tests, faults);
  EXPECT_LE(kept.size(), base);
}

TEST(Compaction, PrecomputedPerTestListsMatchRecomputation) {
  // One simulated matrix fed to the per-test-list passes must agree with
  // the convenience overloads that simulate (or grade) themselves.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 120, 21);
  const PerTestFaults per_test = detected_by_test(nl, tests, faults);

  std::vector<std::size_t> one_per_test(tests.size());
  std::iota(one_per_test.begin(), one_per_test.end(), std::size_t{0});
  EXPECT_EQ(oracle_reduce_groups(per_test, faults.size(), one_per_test,
                                 tests.size()),
            reverse_order_compaction(nl, tests, faults));
  EXPECT_EQ(forward_looking_compaction(per_test, faults.size()),
            forward_looking_compaction(nl, tests, faults));

  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / 15;
  EXPECT_EQ(oracle_reduce_groups(per_test, faults.size(), group_of, 8),
            reduce_groups(nl, tests, faults, group_of, 8));
}

TEST(Compaction, ParallelMatrixGivesIdenticalPasses) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 120, 23);
  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / 10;
  const std::vector<std::size_t> expected = oracle_reduce_groups(
      detected_by_test(nl, tests, faults), faults.size(), group_of, 12);
  EXPECT_EQ(reduce_groups(nl, tests, faults, group_of, 12, 1), expected);
  EXPECT_EQ(reduce_groups(nl, tests, faults, group_of, 12, 2), expected);
  EXPECT_EQ(reduce_groups(nl, tests, faults, group_of, 12, 2, nullptr, 64),
            expected);
}

// Uneven contiguous groups, one of them empty, closed by a copy of group 0's
// tests: group 0 then detects nothing the last group misses.
struct GroupedTests {
  TestSet tests;
  std::vector<std::size_t> group_of;
  std::size_t num_groups = 0;
};

GroupedTests grouped_tests(const Netlist& nl, std::size_t count,
                           std::uint64_t seed) {
  constexpr std::size_t kSizes[] = {5, 17, 0, 1, 40, 9};
  GroupedTests out;
  out.tests = random_tests(nl, count, seed);
  std::size_t g = 0;
  for (std::size_t t = 0; t < count; ++g) {
    const std::size_t len = std::min(kSizes[g % std::size(kSizes)], count - t);
    out.group_of.insert(out.group_of.end(), len, g);
    t += len;
  }
  for (std::size_t t = 0; t < kSizes[0]; ++t) {
    out.tests.push_back(out.tests[t]);
    out.group_of.push_back(g);
  }
  out.num_groups = g + 1;
  return out;
}

// Identity: the grading sweep keeps exactly the groups the matrix oracle
// keeps, for every thread count and pack width, on every registry benchmark.
TEST(Compaction, ReduceGroupsMatchesMatrixOracleOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    const GroupedTests g =
        grouped_tests(nl, spec.num_gates <= 1000 ? 130 : 64, spec.seed + 3);
    const std::vector<std::size_t> expected =
        oracle_reduce_groups(detected_by_test(nl, g.tests, faults),
                             faults.size(), g.group_of, g.num_groups);
    EXPECT_EQ(std::count(expected.begin(), expected.end(), 0u), 0)
        << spec.name << ": group 0 is repeated by the last group";
    EXPECT_EQ(std::count(expected.begin(), expected.end(), 2u), 0)
        << spec.name << ": group 2 is empty";

    for (const std::size_t threads : {1u, 2u}) {
      for (const std::uint32_t width : {1u, 64u}) {
        EXPECT_EQ(reduce_groups(nl, g.tests, faults, g.group_of, g.num_groups,
                                threads, nullptr, width),
                  expected)
            << spec.name << " threads=" << threads << " width=" << width;
      }
    }
  }
}

TEST(Compaction, ReduceGroupsEdgeCases) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 70, 31);

  // A single group that detects anything is kept.
  EXPECT_EQ(reduce_groups(nl, tests, faults,
                          std::vector<std::size_t>(tests.size(), 0), 1),
            std::vector<std::size_t>{0});
  // No tests at all: every group is empty, none is kept.
  EXPECT_TRUE(reduce_groups(nl, {}, faults, {}, 3).empty());

  // A group split into two runs, and an out-of-range id, are rejected.
  std::vector<std::size_t> split(tests.size(), 0);
  split[tests.size() / 2] = 1;
  EXPECT_THROW(reduce_groups(nl, tests, faults, split, 2), Error);
  EXPECT_THROW(reduce_groups(nl, tests, faults,
                             std::vector<std::size_t>(tests.size(), 1), 1),
               Error);
  // group_of must map every test.
  EXPECT_THROW(reduce_groups(nl, tests, faults, {0}, 1), Error);
}

TEST(Compaction, GroupReductionKeepsCoverage) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 160, 7);
  // 16 groups of 10 tests (like segments from 16 seeds).
  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / 10;
  const auto kept_groups = reduce_groups(nl, tests, faults, group_of, 16);
  EXPECT_LE(kept_groups.size(), 16u);

  TestSet reduced;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    if (std::find(kept_groups.begin(), kept_groups.end(), group_of[t]) !=
        kept_groups.end()) {
      reduced.push_back(tests[t]);
    }
  }
  EXPECT_EQ(coverage_of(nl, reduced, faults),
            coverage_of(nl, tests, faults));
}

}  // namespace
}  // namespace fbt
