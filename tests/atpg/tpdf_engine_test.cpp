#include "atpg/tpdf_engine.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "test_circuits.hpp"

namespace fbt {
namespace {

std::vector<PathDelayFault> all_path_faults(const Netlist& nl,
                                            std::size_t cap = 4000) {
  const PathEnumeration e = enumerate_all_paths(nl, cap);
  std::vector<PathDelayFault> faults;
  for (const Path& p : e.paths) {
    faults.push_back({p, true});
    faults.push_back({p, false});
  }
  return faults;
}

TEST(TpdfEngine, ResolvesEveryS27Fault) {
  const Netlist nl = make_s27();
  const auto faults = all_path_faults(nl);
  // s27 has 28 paths -> 56 transition path delay faults (Table 2.1).
  EXPECT_EQ(faults.size(), 56u);

  TpdfEngine engine(nl, TpdfEngineConfig{});
  const TpdfRunReport report = engine.run(faults);
  EXPECT_EQ(report.num_faults, 56u);
  EXPECT_EQ(report.detected + report.undetectable + report.aborted, 56u);
  EXPECT_EQ(report.aborted, 0u);  // tiny circuit: everything resolves
  EXPECT_GT(report.detected, 0u);
  EXPECT_GT(report.undetectable, 0u);
  // Consistency of the phase breakdown.
  EXPECT_EQ(report.detected,
            report.detected_fsim + report.detected_heuristic +
                report.detected_bnb);
  EXPECT_LE(report.detected, report.detectable_upper_bound);
}

TEST(TpdfEngine, ReproducesThePaperS27Row) {
  // Tables 2.1 and 2.3, s27 row, exactly as bench_table2_1_3_5 prints it
  // (same seed).
  const Netlist nl = make_s27();
  TpdfEngineConfig cfg;
  cfg.rng_seed = 2024;
  TpdfEngine engine(nl, cfg);
  const TpdfRunReport report = engine.run(all_path_faults(nl));
  // Table 2.1: faults / detected / undetectable / aborted.
  EXPECT_EQ(report.num_faults, 56u);
  EXPECT_EQ(report.detected, 25u);
  EXPECT_EQ(report.undetectable, 31u);
  EXPECT_EQ(report.aborted, 0u);
  // Table 2.3: preprocessing bound / fault simulation / heuristic / B&B.
  EXPECT_EQ(report.detectable_upper_bound, 25u);
  EXPECT_EQ(report.detected_fsim, 19u);
  EXPECT_EQ(report.detected_heuristic, 6u);
  EXPECT_EQ(report.detected_bnb, 0u);
}

TEST(TpdfEngine, DetectedFaultsHaveVerifiedTests) {
  const Netlist nl = make_s27();
  const auto faults = all_path_faults(nl);
  TpdfEngine engine(nl, TpdfEngineConfig{});
  const TpdfRunReport report = engine.run(faults);

  // Every fault reported detected must be detected by some test in the
  // report's test set (all of its transition faults by the same test).
  BroadsideFaultSim fsim(nl);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (report.per_fault[i].status != TpdfStatus::kDetected) continue;
    const auto trs = transition_faults_along(nl, faults[i]);
    bool some_test_detects_all = false;
    for (const BroadsideTest& t : report.tests) {
      bool all = true;
      for (const TransitionFault& tf : trs) {
        if (!fsim.detects(t, tf)) {
          all = false;
          break;
        }
      }
      if (all) {
        some_test_detects_all = true;
        break;
      }
    }
    EXPECT_TRUE(some_test_detects_all)
        << path_fault_name(nl, faults[i]) << " (phase "
        << static_cast<int>(report.per_fault[i].phase) << ")";
  }
}

TEST(TpdfEngine, UndetectableVerdictsAreConsistentWithExhaustion) {
  // On the Fig. 2.1 circuit the c-d-e path fault must be reported
  // undetectable by preprocessing.
  const Netlist nl = testing::make_fig21_circuit();
  PathDelayFault fp;
  fp.path.nodes = {nl.find("c"), nl.find("d"), nl.find("e")};
  fp.rising = true;
  TpdfEngine engine(nl, TpdfEngineConfig{});
  const TpdfRunReport report = engine.run({fp});
  ASSERT_EQ(report.per_fault.size(), 1u);
  EXPECT_EQ(report.per_fault[0].status, TpdfStatus::kUndetectable);
  EXPECT_EQ(report.per_fault[0].phase, TpdfPhase::kPreprocessing);
}

TEST(TpdfEngine, RobustlyTestablePathIsDetected) {
  const Netlist nl = testing::make_fig2_circuit();
  PathDelayFault fp;
  fp.path.nodes = {nl.find("a"), nl.find("c"), nl.find("e"), nl.find("g")};
  fp.rising = true;
  TpdfEngine engine(nl, TpdfEngineConfig{});
  const TpdfRunReport report = engine.run({fp});
  ASSERT_EQ(report.per_fault.size(), 1u);
  EXPECT_EQ(report.per_fault[0].status, TpdfStatus::kDetected);
}

}  // namespace
}  // namespace fbt
