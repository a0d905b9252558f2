#include "flow/bist_flow.hpp"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bist/embedded.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/fault_sim.hpp"
#include "jobs/job_system.hpp"
#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "rtl/lockstep.hpp"

namespace fbt {
namespace {

BistExperimentConfig small_experiment(const std::string& target,
                                      const std::string& driver) {
  BistExperimentConfig cfg;
  cfg.target_name = target;
  cfg.driver_name = driver;
  cfg.calibration.num_sequences = 4;
  cfg.calibration.sequence_length = 400;
  cfg.generation.segment_length = 200;
  cfg.generation.max_segment_failures = 2;
  cfg.generation.max_sequence_failures = 2;
  cfg.generation.rng_seed = 19;
  return cfg;
}

TEST(BistFlow, UnconstrainedExperimentEndToEnd) {
  const BistExperimentResult r =
      run_bist_experiment(small_experiment("s298", "buffers"));
  EXPECT_GT(r.swa_func, 0.0);
  EXPECT_FALSE(r.generation.bounded);  // buffers row: no SWA constraint
  EXPECT_GT(r.detected, 0u);
  EXPECT_GT(r.fault_coverage_percent, 20.0);
  EXPECT_GT(r.hw_area, 0.0);
  EXPECT_GT(r.circuit_area_um2, r.hw_area / 10.0);
  EXPECT_NEAR(r.overhead_percent,
              100.0 * r.hw_area / r.circuit_area_um2, 1e-9);
}

TEST(BistFlow, PoolOverloadMatchesSerialReference) {
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  const BistExperimentResult serial = run_bist_experiment(cfg);
  jobs::JobSystem jobs(4);  // the CI container may report one core
  const BistExperimentResult pooled =
      run_bist_experiment(cfg, jobs, ExperimentArtifacts{});
  EXPECT_EQ(pooled.run.num_tests, serial.run.num_tests);
  EXPECT_EQ(pooled.run.num_seeds, serial.run.num_seeds);
  EXPECT_EQ(pooled.detected, serial.detected);
  EXPECT_EQ(pooled.detect_count, serial.detect_count);
  EXPECT_DOUBLE_EQ(pooled.swa_func, serial.swa_func);
  EXPECT_DOUBLE_EQ(pooled.fault_coverage_percent,
                   serial.fault_coverage_percent);
}

#if FBT_OBS_ENABLED
TEST(BistFlow, BatchFlowRunsOnTheCallingThread) {
  // The flow is straight-line code: at num_threads = 1 it submits nothing
  // to the pool, so every span it records carries the caller's tid.
  obs::PhaseTrace::instance().clear();
  BistExperimentConfig cfg = small_experiment("s298", "s386");
  cfg.num_threads = 1;
  jobs::JobSystem jobs(4);
  {
    obs::PhaseSpan caller_span("caller");  // records the caller's tid
    (void)run_bist_experiment(cfg, jobs, ExperimentArtifacts{});
  }
  EXPECT_EQ(jobs.scheduler_snapshot().submitted, 0u);
  const std::vector<obs::PhaseNode> roots = obs::PhaseTrace::instance().roots();
  ASSERT_FALSE(roots.empty());
  const std::uint32_t caller = roots.back().tid;

  const std::string json = obs::PhaseTrace::instance().chrome_trace_json();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json, doc, error)) << error;
  ASSERT_TRUE(doc.is_array());
  std::set<std::string> names;
  for (const obs::JsonValue& event : doc.array) {
    if (event.find("ph")->as_string("") != "X") continue;
    const std::string name = event.find("name")->as_string("");
    names.insert(name);
    EXPECT_EQ(event.find("tid")->as_number(), static_cast<double>(caller))
        << name;
  }
  EXPECT_EQ(names.count("bist_experiment"), 1u);
  EXPECT_EQ(names.count("calibrate"), 1u);
}
#endif  // FBT_OBS_ENABLED

TEST(BistFlow, SuppliedArtifactsAreBitIdenticalToDerived) {
  // The serving cache hands pre-computed artifacts to the flow; supplying
  // them must not change a single result byte versus deriving them.
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  jobs::JobSystem jobs(4);
  const BistExperimentResult derived =
      run_bist_experiment(cfg, jobs, ExperimentArtifacts{});

  ExperimentArtifacts artifacts;
  artifacts.target =
      std::make_shared<const Netlist>(load_benchmark(cfg.target_name));
  artifacts.driver = std::make_shared<const Netlist>(
      make_buffers_block(artifacts.target->num_inputs()));
  artifacts.faults = std::make_shared<const TransitionFaultList>(
      TransitionFaultList::collapsed(*artifacts.target));
  artifacts.swa_func_percent = derived.swa_func;

  const BistExperimentResult supplied =
      run_bist_experiment(cfg, jobs, artifacts);
  EXPECT_EQ(supplied.detect_count, derived.detect_count);
  EXPECT_EQ(supplied.run.num_tests, derived.run.num_tests);
  EXPECT_EQ(supplied.run.num_seeds, derived.run.num_seeds);
  EXPECT_DOUBLE_EQ(supplied.swa_func, derived.swa_func);
  EXPECT_DOUBLE_EQ(supplied.fault_coverage_percent,
                   derived.fault_coverage_percent);
  ASSERT_EQ(supplied.run.first_detect.size(), derived.run.first_detect.size());
  for (std::size_t i = 0; i < derived.run.first_detect.size(); ++i) {
    EXPECT_EQ(supplied.run.first_detect[i].test,
              derived.run.first_detect[i].test) << i;
    EXPECT_EQ(supplied.run.first_detect[i].seed,
              derived.run.first_detect[i].seed) << i;
  }
}

TEST(BistFlow, ConstrainedExperimentBoundsSwitching) {
  const BistExperimentResult r =
      run_bist_experiment(small_experiment("s298", "s386"));
  EXPECT_TRUE(r.generation.bounded);
  EXPECT_GT(r.swa_func, 0.0);
  EXPECT_LE(r.run.peak_swa, r.swa_func + 1e-9);
}

TEST(BistFlow, ConstraintsOnlyLowerTheBound) {
  const BistExperimentResult free =
      run_bist_experiment(small_experiment("s298", "buffers"));
  const BistExperimentResult tied =
      run_bist_experiment(small_experiment("s298", "s386"));
  // A driving block filters the input space, so the functional peak under it
  // cannot exceed the unconstrained peak by more than simulation noise.
  EXPECT_LE(tied.swa_func, free.swa_func * 1.15);
}

TEST(BistFlow, SequenceReductionPreservesCoverage) {
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.reduce_sequences = true;
  const BistExperimentResult reduced = run_bist_experiment(cfg);
  cfg.reduce_sequences = false;
  const BistExperimentResult full = run_bist_experiment(cfg);

  EXPECT_LE(reduced.run.num_seeds, reduced.seeds_before_reduction);
  EXPECT_LE(reduced.run.sequences.size(),
            reduced.sequences_before_reduction);
  // Same construction -> same detection credit; the kept tests must regrade
  // to the same coverage.
  EXPECT_EQ(reduced.detected, full.detected);
  BroadsideFaultSim fsim(reduced.target);
  std::vector<std::uint32_t> regraded(reduced.faults.size(), 0);
  fsim.grade(reduced.run.tests, reduced.faults, regraded, 1);
  std::size_t covered = 0;
  for (const std::uint32_t c : regraded) covered += (c >= 1);
  EXPECT_EQ(covered, reduced.detected);
}

TEST(BistFlow, ParallelGradingReproducesTheSerialFlowExactly) {
  // num_threads only shards the fault grading; every committed segment,
  // every detect count, and the reduced sequence set must match the serial
  // flow bit for bit.
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.num_threads = 1;
  const BistExperimentResult serial = run_bist_experiment(cfg);
  cfg.num_threads = 2;
  const BistExperimentResult parallel = run_bist_experiment(cfg);

  EXPECT_EQ(parallel.detect_count, serial.detect_count);
  EXPECT_EQ(parallel.detected, serial.detected);
  EXPECT_EQ(parallel.run.num_seeds, serial.run.num_seeds);
  EXPECT_EQ(parallel.run.num_tests, serial.run.num_tests);
  ASSERT_EQ(parallel.run.sequences.size(), serial.run.sequences.size());
  for (std::size_t s = 0; s < serial.run.sequences.size(); ++s) {
    const auto& ps = parallel.run.sequences[s].segments;
    const auto& ss = serial.run.sequences[s].segments;
    ASSERT_EQ(ps.size(), ss.size());
    for (std::size_t i = 0; i < ss.size(); ++i) {
      EXPECT_EQ(ps[i].seed, ss[i].seed);
      EXPECT_EQ(ps[i].length, ss[i].length);
    }
  }
}

TEST(BistFlow, PackedGradingReproducesTheSerialFlowExactly) {
  // fault_pack_width selects the grading engine (serial reference at 1,
  // PPSFP at 64) for every fault-grading step of the flow; the generated
  // plan must be bit-identical either way.
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.fault_pack_width = 1;
  const BistExperimentResult serial = run_bist_experiment(cfg);
  cfg.fault_pack_width = 64;
  const BistExperimentResult packed = run_bist_experiment(cfg);

  EXPECT_EQ(packed.detect_count, serial.detect_count);
  EXPECT_EQ(packed.detected, serial.detected);
  EXPECT_EQ(packed.run.num_seeds, serial.run.num_seeds);
  EXPECT_EQ(packed.run.num_tests, serial.run.num_tests);
  ASSERT_EQ(packed.run.sequences.size(), serial.run.sequences.size());
  for (std::size_t s = 0; s < serial.run.sequences.size(); ++s) {
    const auto& ps = packed.run.sequences[s].segments;
    const auto& ss = serial.run.sequences[s].segments;
    ASSERT_EQ(ps.size(), ss.size());
    for (std::size_t i = 0; i < ss.size(); ++i) {
      EXPECT_EQ(ps[i].seed, ss[i].seed);
      EXPECT_EQ(ps[i].length, ss[i].length);
    }
  }
}

TEST(BistFlow, EmitsRtlThatTracksTheGeneratedPlan) {
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.generation.tpg.lfsr_stages = 8;
  cfg.generation.tpg.bias_bits = 2;
  cfg.scan = equal_partition_scan_config(14);  // s298 has 14 flops
  cfg.emit_rtl = true;
  cfg.rtl_misr_stages = 16;
  const BistExperimentResult r = run_bist_experiment(cfg);
  ASSERT_TRUE(r.rtl.has_value());
  EXPECT_FALSE(r.rtl->verilog.empty());
  EXPECT_EQ(r.rtl->inventory.cut_flops, r.target.num_flops());

  // The flow's emitted RTL passes the full lockstep against the session that
  // replays its own plan.
  SessionConfig session;
  session.misr_stages = cfg.rtl_misr_stages;
  session.tpg = r.generation.tpg;
  const RtlDesign design = elaborate_verilog(r.rtl->verilog, r.rtl->top_name);
  const LockstepReport rep =
      run_lockstep(r.target, r.run, r.scan, session, *r.rtl, design);
  EXPECT_TRUE(rep.ok) << rep.mismatches << " mismatches";
  EXPECT_TRUE(rep.done_asserted);
}

TEST(BistFlow, HoldExperimentImprovesOrKeepsCoverage) {
  BistExperimentResult base =
      run_bist_experiment(small_experiment("s298", "s386"));
  const std::size_t before = base.detected;

  HoldSelectionConfig hold;
  hold.tree_height = 2;
  hold.hold_period_log2 = 2;
  hold.eval = base.generation;
  hold.eval.max_segment_failures = 1;
  hold.eval.max_sequence_failures = 1;
  hold.commit = base.generation;
  const HoldExperimentResult r = run_hold_experiment(base, hold, 31);
  EXPECT_GE(r.detected_total, before);
  EXPECT_GE(r.final_coverage_percent, base.fault_coverage_percent - 1e-9);
  EXPECT_GE(r.hw_area, base.hw_area * 0.9);
}

}  // namespace
}  // namespace fbt
