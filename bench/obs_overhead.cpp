// Measures the walltime cost of the observability layer on the flow_smoke
// workload (s298 under the buffers driver, the CI baseline configuration),
// handed a 4-worker pool. At the config's num_threads = 1 the flow runs on
// the calling thread, so the gate prices its spans, counters and journal
// events. CI builds this bench twice (FBT_OBS=ON and OFF), runs each,
// and gates the ON/OFF delta of the obs.flow_run_ms gauge with
// `fbt_report diff --max-obs-overhead-pct 2`.
//
// Methodology: one untimed warmup run, then --repeats timed runs (default
// 7); the gated figure is the MINIMUM walltime (robust against scheduler
// noise on shared CI runners), the mean is reported alongside. The phase
// trace is cleared between repeats so the trace buffer cannot grow across
// iterations and distort later runs.
#include <algorithm>
#include <cstdio>
#include <string>

#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

#ifndef FBT_OBS_ENABLED
#define FBT_OBS_ENABLED 1
#endif

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const int repeats = static_cast<int>(cli.get_int("repeats", 7));
  const int threads = static_cast<int>(cli.get_int("threads", 4));

  fbt::BistExperimentConfig cfg;
  cfg.target_name = "s298";
  cfg.driver_name = "buffers";
  cfg.calibration.num_sequences = 4;
  cfg.calibration.sequence_length = 400;
  cfg.generation.segment_length = 200;
  cfg.generation.max_segment_failures = 2;
  cfg.generation.max_sequence_failures = 2;
  cfg.generation.rng_seed = 19;

  fbt::jobs::JobSystem jobs(static_cast<std::size_t>(threads));

  // Warmup: pays first-touch costs (benchmark registry, allocator warm-up)
  // outside the timed window.
  (void)fbt::run_bist_experiment(cfg, jobs, fbt::ExperimentArtifacts{});
  fbt::obs::PhaseTrace::instance().clear();

  double min_ms = 0.0;
  double sum_ms = 0.0;
  for (int i = 0; i < repeats; ++i) {
    fbt::Timer timer;
    const fbt::BistExperimentResult r =
        fbt::run_bist_experiment(cfg, jobs, fbt::ExperimentArtifacts{});
    const double ms = timer.ms();
    std::printf("obs_overhead: repeat %d/%d %.3f ms (coverage %.4f%%)\n",
                i + 1, repeats, ms, r.fault_coverage_percent);
    min_ms = i == 0 ? ms : std::min(min_ms, ms);
    sum_ms += ms;
    fbt::obs::PhaseTrace::instance().clear();
  }
  const double mean_ms = repeats > 0 ? sum_ms / repeats : 0.0;

  // Gauge classes work in both builds (only the FBT_OBS_* macros compile
  // out), so the OFF-build report still carries the baseline figure.
  fbt::obs::registry().gauge("obs.flow_run_ms").set(min_ms);
  fbt::obs::registry().gauge("obs.flow_run_ms_mean").set(mean_ms);
  fbt::obs::registry().gauge("obs.enabled").set(FBT_OBS_ENABLED);

  std::printf("obs_overhead: obs=%d min %.3f ms mean %.3f ms over %d repeats\n",
              FBT_OBS_ENABLED, min_ms, mean_ms, repeats);
  fbt::obs::write_bench_report(
      "obs_overhead",
      {{"workload", "flow_smoke"},
       {"repeats", std::to_string(repeats)},
       {"threads", std::to_string(threads)},
       {"obs_enabled", FBT_OBS_ENABLED != 0 ? "1" : "0"}});
  return 0;
}
