#include "bist/functional_bist.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "obs/event_journal.hpp"
#include "sim/seqsim.hpp"

namespace fbt {
namespace {

FunctionalBistConfig small_config() {
  FunctionalBistConfig cfg;
  cfg.segment_length = 200;
  cfg.max_segment_failures = 2;
  cfg.max_sequence_failures = 2;
  cfg.bounded = false;
  cfg.rng_seed = 11;
  return cfg;
}

// The central property of the target paper: every generated test is a
// *functional broadside test* -- its scan-in state lies on a functional-mode
// trajectory from the reachable reset state, and its second state is the
// circuit's broadside response to the first pattern.
TEST(FunctionalBist, TestsAreFunctionalBroadsideTests) {
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  ASSERT_GT(run.num_tests, 0u);

  // Replay each sequence functionally and confirm the tests are cut from the
  // trajectory.
  Tpg tpg(nl, small_config().tpg);
  std::size_t test_index = 0;
  for (const SequenceRecord& seq : run.sequences) {
    SeqSim sim(nl);
    sim.load_reset_state();
    for (const SegmentRecord& seg : seq.segments) {
      tpg.reseed(seg.seed);
      for (std::size_t c = 0; c < seg.length; ++c) {
        const auto pi = tpg.next_vector();
        if (c % 2 == 0) {
          ASSERT_LT(test_index, run.tests.size());
          const BroadsideTest& t = run.tests[test_index];
          EXPECT_EQ(t.scan_state, sim.state());
          EXPECT_EQ(t.v1, pi);
        } else {
          EXPECT_EQ(run.tests[test_index].v2, pi);
          ++test_index;
        }
        sim.step(pi);
      }
    }
  }
  EXPECT_EQ(test_index, run.num_tests);

  // And the broadside property: s2 is the response to <s1, v1> (no state
  // holding in this configuration).
  for (const BroadsideTest& t : run.tests) {
    EXPECT_TRUE(t.state2_override.empty());
  }
}

TEST(FunctionalBist, DetectsFaultsAndReportsCoverage) {
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);

  std::size_t detected = 0;
  for (const std::uint32_t c : detect) detected += (c >= 1);
  EXPECT_EQ(detected, run.newly_detected);
  EXPECT_GT(detected, faults.size() / 4);

  // Re-grading the returned tests reproduces the same detection set.
  BroadsideFaultSim fsim(nl);
  std::vector<std::uint32_t> regraded(faults.size(), 0);
  fsim.grade(run.tests, faults, regraded, 1);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    EXPECT_EQ(regraded[f] >= 1, detect[f] >= 1) << fault_name(nl, faults.fault(f));
  }
}

TEST(FunctionalBist, EverySegmentEarnsItsKeep) {
  // Each committed segment must have detected at least one new fault at the
  // time it was committed, so #segments <= #detected faults.
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  EXPECT_LE(run.num_seeds, run.newly_detected);
  EXPECT_EQ(run.num_tests, run.tests.size());
  std::size_t seg_count = 0;
  for (const auto& seq : run.sequences) seg_count += seq.segments.size();
  EXPECT_EQ(run.num_seeds, seg_count);
}

TEST(FunctionalBist, SwaBoundIsRespected) {
  const Netlist nl = load_benchmark("s386");
  FunctionalBistConfig cfg = small_config();
  cfg.bounded = true;
  cfg.segment_length = 300;
  // Measure the unbounded peak first, then constrain to 85% of it.
  {
    FunctionalBistConfig probe = cfg;
    probe.bounded = false;
    FunctionalBistGenerator gen(nl, probe);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    std::vector<std::uint32_t> detect(faults.size(), 0);
    const FunctionalBistResult unbounded = gen.run(faults, detect);
    ASSERT_GT(unbounded.peak_swa, 0.0);
    cfg.swa_bound_percent = 0.85 * unbounded.peak_swa;
  }
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult bounded = gen.run(faults, detect);
  EXPECT_LE(bounded.peak_swa, cfg.swa_bound_percent + 1e-9);
  if (bounded.num_tests > 0) {
    EXPECT_GT(bounded.num_seeds, 0u);
  }
}

TEST(FunctionalBist, TighterBoundNeverHelpsCoverage) {
  const Netlist nl = load_benchmark("s386");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);

  auto coverage_at = [&](double bound, bool bounded) {
    FunctionalBistConfig cfg = small_config();
    cfg.segment_length = 300;
    cfg.bounded = bounded;
    cfg.swa_bound_percent = bound;
    FunctionalBistGenerator gen(nl, cfg);
    std::vector<std::uint32_t> detect(faults.size(), 0);
    gen.run(faults, detect);
    std::size_t detected = 0;
    for (const std::uint32_t c : detect) detected += (c >= 1);
    return detected;
  };
  const std::size_t unbounded = coverage_at(100.0, false);
  const std::size_t tight = coverage_at(12.0, true);
  EXPECT_LE(tight, unbounded);
}

TEST(FunctionalBist, SegmentLengthsAreEvenAndBounded) {
  const Netlist nl = make_s27();
  FunctionalBistConfig cfg = small_config();
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  for (const auto& seq : run.sequences) {
    for (const auto& seg : seq.segments) {
      EXPECT_EQ(seg.length % 2, 0u);
      EXPECT_LE(seg.length, cfg.segment_length);
      EXPECT_EQ(seg.num_tests, seg.length / 2);
    }
  }
  EXPECT_LE(run.lmax, cfg.segment_length);
}

TEST(FunctionalBist, HoldingProducesOverriddenStates) {
  const Netlist nl = load_benchmark("s298");
  FunctionalBistConfig cfg = small_config();
  cfg.hold_period_log2 = 2;
  cfg.hold_set = {0, 1, 2, 3, 4};
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  std::size_t overridden = 0;
  for (const BroadsideTest& t : run.tests) {
    ASSERT_FALSE(t.state2_override.empty());
    const auto natural = second_state(nl, t);
    if (t.state2_override != natural) {
      ++overridden;
      // Only held flops may deviate from the broadside response.
      for (std::size_t i = 0; i < natural.size(); ++i) {
        if (t.state2_override[i] != natural[i]) {
          EXPECT_TRUE(std::find(cfg.hold_set.begin(), cfg.hold_set.end(), i) !=
                      cfg.hold_set.end());
        }
      }
    }
  }
  if (!run.tests.empty()) {
    EXPECT_GT(overridden, 0u);  // holding must actually bite somewhere
  }
}

// A SWA_func tight enough that s298's candidates are trimmed and rejected,
// loose enough that some segments survive.
FunctionalBistConfig trimming_config() {
  FunctionalBistConfig cfg;
  cfg.segment_length = 64;
  cfg.max_segment_failures = 2;
  cfg.max_sequence_failures = 2;
  cfg.swa_bound_percent = 30.0;
  cfg.rng_seed = 2026;
  return cfg;
}

TEST(FunctionalBist, BoundedTrimsLeaveAReplayableTrajectory) {
  // Replays every committed multi-segment sequence from reset using only the
  // recorded (seed, length) pairs and re-derives the tests. This pins the
  // invariant that after a violation-trimmed segment the simulator sits at
  // the end of the usable prefix -- the trajectory the on-chip hardware
  // would actually produce.
  const Netlist nl = load_benchmark("s298");
  const FunctionalBistConfig cfg = trimming_config();
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  ASSERT_FALSE(run.sequences.empty());
  std::size_t trimmed = 0;

  Tpg tpg(nl, cfg.tpg);
  SeqSim sim(nl);
  std::size_t next_test = 0;
  for (const SequenceRecord& seq : run.sequences) {
    sim.load_reset_state();
    for (const SegmentRecord& seg : seq.segments) {
      ASSERT_EQ(seg.length % 2, 0u);
      if (seg.length < cfg.segment_length) ++trimmed;
      tpg.reseed(seg.seed);
      for (std::size_t c = 0; c < seg.length; c += 2) {
        const std::vector<std::uint8_t> launch = sim.state();
        const std::vector<std::uint8_t> v1 = tpg.next_vector();
        sim.step(v1);
        const std::vector<std::uint8_t> v2 = tpg.next_vector();
        sim.step(v2);
        ASSERT_LT(next_test, run.tests.size());
        const BroadsideTest& t = run.tests[next_test++];
        EXPECT_EQ(t.scan_state, launch);
        EXPECT_EQ(t.v1, v1);
        EXPECT_EQ(t.v2, v2);
      }
    }
  }
  EXPECT_EQ(next_test, run.tests.size());
  // The config is tight enough that at least one segment was trimmed, so
  // the replay actually crossed a post-violation boundary.
  EXPECT_GT(trimmed, 0u);
}

struct JournaledRun {
  std::string journal;
  std::vector<FaultFirstDetect> first_detect;
};

JournaledRun run_journaled(const Netlist& nl, FunctionalBistConfig cfg,
                           std::size_t lanes) {
  cfg.speculation_lanes = lanes;
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  obs::journal().clear();
  JournaledRun out;
  out.first_detect = gen.run(faults, detect).first_detect;
  out.journal = obs::journal().ndjson();
  obs::journal().clear();
  return out;
}

TEST(FunctionalBist, SpeculationLanesIsInert) {
  // speculation_lanes is accepted and ignored: the search tries one seed at
  // a time whatever it says, so the event journal (every seed tried,
  // accepted and rejected) and the first-detect table match byte for byte.
  const Netlist nl = load_benchmark("s298");
  const JournaledRun one = run_journaled(nl, trimming_config(), 1);
  const JournaledRun wide = run_journaled(nl, trimming_config(), 64);
  EXPECT_EQ(one.journal, wide.journal);
  EXPECT_EQ(one.first_detect, wide.first_detect);
#if FBT_OBS_ENABLED
  // Rejections happened, so a batched search would have had work to do.
  EXPECT_NE(one.journal.find("\"seed_rejected\""), std::string::npos);
#endif
}

}  // namespace
}  // namespace fbt
