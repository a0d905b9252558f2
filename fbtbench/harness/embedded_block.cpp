// embedded_block: batch run_bist_experiment on a target embedded behind a
// driving block (Table 4.3's constrained scenario), one experiment per
// operation, the driving blocks alternating. With one thread per experiment
// the job pool is not on the path, so no jobs.* figures are taken here.
#include <optional>

#include "circuits/registry.hpp"
#include "common.hpp"
#include "obs/resource.hpp"

namespace fbtbench {

void run_embedded_block(const Json& spec, double deadline_s, Tracer& tracer,
                        RawResult& raw) {
  const Json& flow = at(spec, "flow");
  const std::vector<Json>& experiments = at(spec, "experiments").array;
  const std::string& target = str(spec, "target");

  // Set-up: what a batch user builds before the first experiment -- the
  // target and every driving block through the circuits registry, and the
  // target's collapsed fault list -- then one warm-up experiment, the same
  // for every seed, so that the pool, the registries and the allocator are
  // warm before timing. Loading alone takes about 10 ms, and its time
  // swings by half between runs on a shared host; the warm-up makes the
  // set-up as steady as an experiment.
  const Json& warmup = at(spec, "warmup");
  for (std::uint64_t rep = 0; rep < u64(spec, "setup_reps"); ++rep) {
    const std::int64_t t0 = now_ns();
    const fbt::Netlist nl = fbt::load_benchmark(target);
    fbt::require(fbt::TransitionFaultList::collapsed(nl).size() > 0,
                 "embedded_block", "no faults in " + target);
    for (const Json& driver : at(spec, "drivers").array) {
      fbt::require(fbt::load_benchmark(driver.string).num_gates() > 0,
                   "embedded_block", "empty " + driver.string);
    }
    (void)fbt::run_bist_experiment(flow_config(
        flow, target, str(warmup, "driver"), u64(warmup, "rng_seed")));
    raw.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  CounterDelta counters(
      {"bist.segments_built", "bist.segments_accepted",
       "bist.speculated_lanes", "bist.speculation_wasted",
       "fault.pack_groups_simulated", "fault.pack_lanes_wasted"});
  FlowStats stats;
  const std::uint64_t pairs = u64(spec, "overhead_pairs");
  std::vector<double> overhead_ratios;
  // Each experiment is checked as soon as it finishes, outside the timed
  // window, so that at most one result is alive at a time; loop_s counts
  // the experiments only.
  for (std::size_t i = 0; i < experiments.size() && raw.loop_s < deadline_s;
       ++i) {
    const Json& e = experiments[i];
    const fbt::BistExperimentConfig cfg =
        flow_config(flow, target, str(e, "driver"), u64(e, "rng_seed"));
    OpRecord rec;
    rec.index = static_cast<std::int64_t>(i);
    std::optional<fbt::BistExperimentResult> result;
    const std::int64_t t0 = now_ns();
    try {
      if (tracer.enabled()) {
        result.emplace(
            composed_flow(cfg, tracer, static_cast<std::int64_t>(i), &stats));
      } else {
        result.emplace(fbt::run_bist_experiment(cfg));
      }
    } catch (const std::exception& ex) {
      rec.ok = false;
      rec.error = ex.what();
    }
    rec.latency_ms = static_cast<double>(now_ns() - t0) / 1e6;
    raw.loop_s += rec.latency_ms / 1e3;
    rec.end_s = raw.loop_s;
    if (result.has_value()) {
      const fbt::BistExperimentResult& r = *result;
      rec.fingerprint = fingerprint(r.detect_count, r.run.first_detect);
      rec.coverage_pct = r.fault_coverage_percent;
      rec.tests = static_cast<double>(r.run.num_tests);
      rec.seeds = static_cast<double>(r.run.num_seeds);
      for (const std::string& p : check_experiment(r)) {
        rec.ok = false;
        rec.error = p;
      }
    }
    // Traced-mode self-check and tracing overhead: the first operations
    // run again at once, untraced, through run_bist_experiment. The answers
    // must agree, and each pair's time ratio is taken while the host runs
    // at the same speed for both.
    if (tracer.enabled() && rec.ok && i < pairs) {
      std::optional<fbt::BistExperimentResult> ref;
      counters.exclude([&] {
        const std::int64_t u0 = now_ns();
        ref.emplace(fbt::run_bist_experiment(cfg));
        overhead_ratios.push_back(
            rec.latency_ms / (static_cast<double>(now_ns() - u0) / 1e6));
      });
      if (fingerprint(ref->detect_count, ref->run.first_detect) !=
              rec.fingerprint ||
          static_cast<double>(ref->run.num_tests) != rec.tests ||
          static_cast<double>(ref->run.num_seeds) != rec.seeds) {
        rec.ok = false;
        rec.error =
            "traced self-check: composed flow differs from run_bist_experiment";
      }
    }
    raw.ops.push_back(std::move(rec));
  }
  note_unserved(raw, experiments.size(), deadline_s);
  raw.peak_rss_mb =
      static_cast<double>(fbt::obs::peak_rss_bytes()) / 1048576.0;
  counters.store(raw);
  raw.values["flow.calibrate_gate_cycles"] = stats.calibrate_gate_cycles;
  raw.values["flow.reduce_test_faults"] = stats.reduce_test_faults;
  raw.values["flow.reduce_groups"] = stats.reduce_groups;
  raw.values["flow.reduce_kept"] = stats.reduce_kept;
  raw.values["flow.rtl_bytes"] = stats.rtl_bytes;
  if (!overhead_ratios.empty()) {
    raw.values["trace.overhead_ratio"] = median(overhead_ratios);
    raw.values["trace.selfcheck_ops"] =
        static_cast<double>(overhead_ratios.size());
  }
}

}  // namespace fbtbench
