// Serial vs PPSFP packed fault-grading throughput on one registry circuit.
//
// Grades the same random broadside test set against the full collapsed fault
// list with the serial engine (one fault at a time, 64 tests per word) and
// with the PPSFP engine at pack widths 8 and 64 (up to 64 faults per word
// against the shared good-machine trace), single-threaded and with the
// fault-group walk split over threads -- verifying bit-identical detect
// counts and first-detect provenance at every configuration. The realistic
// grade mode (fault dropping at --detect-limit, default 1) is the gated
// measurement: the gauge fault.pack_speedup_64 (serial ms / pack-64 ms, both
// single-threaded) feeds the fbt_report diff --min-pack-speedup CI gate. A
// no-drop pass is reported alongside as the raw-propagation bound. Writes
// BENCH_ppsfp.json with the timings, speedups, and pack-efficiency gauges
// (groups simulated, lanes wasted, diff words propagated).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "jobs/job_system.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "serve/shutdown.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

fbt::TestSet random_tests(const fbt::Netlist& nl, std::size_t count,
                          std::uint64_t seed) {
  fbt::Pcg32 rng(seed);
  fbt::TestSet tests;
  for (std::size_t i = 0; i < count; ++i) {
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
  return tests;
}

struct GradeRun {
  std::vector<std::uint32_t> counts;
  fbt::GradeProvenance provenance;
};

// One timed repeat: the pure grade, no provenance -- provenance collection
// is optional telemetry, off on the flow's hot path.
double timed_grade(fbt::BroadsideFaultSim& sim,
                   const fbt::TestSet& tests,
                   const fbt::TransitionFaultList& faults,
                   std::uint32_t detect_limit) {
  std::vector<std::uint32_t> counts(faults.size(), 0);
  fbt::Timer t;
  sim.grade(tests, faults, counts, detect_limit);
  return t.ms();
}

// Untimed pass collecting the counts and provenance the identity check
// compares.
GradeRun identity_grade(fbt::BroadsideFaultSim& sim,
                        const fbt::TestSet& tests,
                        const fbt::TransitionFaultList& faults,
                        std::uint32_t detect_limit) {
  GradeRun out;
  out.counts.assign(faults.size(), 0);
  sim.grade(tests, faults, out.counts, detect_limit, &out.provenance);
  return out;
}

bool same_results(const GradeRun& a, const GradeRun& b) {
  return a.counts == b.counts &&
         a.provenance.first_hits == b.provenance.first_hits &&
         a.provenance.blocks == b.provenance.blocks;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  // des_perf is the largest registry circuit (4800 gates, 1200 flops) --
  // the same throughput target bench_parallel_grade measures.
  const std::string target_name = cli.get("target", "des_perf");
  const auto num_tests = static_cast<std::size_t>(cli.get_int("tests", 256));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 5));
  const auto detect_limit =
      static_cast<std::uint32_t>(cli.get_int("detect-limit", 1));
  constexpr std::uint32_t kNoDrop = 1u << 30;  // keep every fault active

  // On SIGINT/SIGTERM: flush the journal + write the (partial) bench
  // report before exiting with the conventional 128+signum status.
  fbt::serve::GracefulShutdown shutdown([](int sig) {
    std::fprintf(stderr, "[bench_ppsfp] caught signal %d, flushing report\n",
                 sig);
    fbt::obs::write_bench_report("ppsfp", {{"interrupted", "yes"}});
    std::_Exit(fbt::serve::GracefulShutdown::exit_status(sig));
  });

  fbt::Timer total;
  const fbt::Netlist nl = fbt::load_benchmark(target_name);
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  const fbt::TestSet tests = random_tests(nl, num_tests, 0xbadcafeULL);
  const std::size_t hw = fbt::jobs::JobSystem::resolve_threads(0);

  std::printf(
      "[bench_ppsfp] target=%s tests=%zu faults=%zu detect_limit=%u "
      "hw_threads=%zu\n",
      target_name.c_str(), tests.size(), faults.size(), detect_limit, hw);

  fbt::Table table("PPSFP packed fault grading (" + target_name + ", " +
                   std::to_string(tests.size()) + " tests, " +
                   std::to_string(faults.size()) + " faults, limit " +
                   std::to_string(detect_limit) + ")");
  table.set_header({"engine", "grade ms", "speedup", "identical"});

  bool all_identical = true;
  // Serial reference (pack width 1, one thread) plus the packed configs.
  fbt::BroadsideFaultSim serial(nl);
  struct Config {
    std::uint32_t width;
    std::size_t threads;
  };
  std::vector<Config> configs = {{8, 1}, {64, 1}, {64, 2}};
  if (hw != 2 && hw != 1) configs.push_back({64, hw});
  std::vector<std::unique_ptr<fbt::BroadsideFaultSim>> sims;
  for (const Config& c : configs) {
    sims.push_back(
        std::make_unique<fbt::BroadsideFaultSim>(nl, c.width, c.threads));
  }

  // Timed repeats run interleaved across the engines: a noisy phase of a
  // shared host hits every configuration instead of whichever one happened
  // to be running, so the best-of ratios stay comparable.
  double serial_best = 1e300;
  std::vector<double> config_best(configs.size(), 1e300);
  for (std::size_t r = 0; r < repeats; ++r) {
    serial_best = std::min(serial_best,
                           timed_grade(serial, tests, faults, detect_limit));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      config_best[i] = std::min(
          config_best[i], timed_grade(*sims[i], tests, faults, detect_limit));
    }
  }

  FBT_OBS_GAUGE_SET("fault.ppsfp_bench_serial_ms", serial_best);
  table.add_row({"serial", fbt::Table::num(serial_best, 2), "1.00", "ref"});

  const GradeRun serial_run =
      identity_grade(serial, tests, faults, detect_limit);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
#if FBT_OBS_ENABLED
    const std::uint64_t groups_before =
        fbt::obs::registry().counter("fault.pack_groups_simulated").value();
    const std::uint64_t wasted_before =
        fbt::obs::registry().counter("fault.pack_lanes_wasted").value();
    const std::uint64_t words_before =
        fbt::obs::registry()
            .counter("fault.pack_diff_words_propagated")
            .value();
#endif
    const GradeRun run = identity_grade(*sims[i], tests, faults, detect_limit);
    const bool identical = same_results(run, serial_run);
    all_identical = all_identical && identical;
    const double speedup =
        config_best[i] > 0 ? serial_best / config_best[i] : 0.0;
    const std::string label =
        "w" + std::to_string(c.width) +
        (c.threads == 1 ? "" : "x" + std::to_string(c.threads) + "t");
    table.add_row({label, fbt::Table::num(config_best[i], 2),
                   fbt::Table::num(speedup, 2), identical ? "yes" : "NO"});
    // Dynamic metric names: bypass the macro (it caches one name per call
    // site) and talk to the registry directly.
    fbt::obs::registry().gauge("fault.pack_bench_" + label + "_ms")
        .set(config_best[i]);
    fbt::obs::registry().gauge("fault.pack_bench_speedup_" + label)
        .set(speedup);
    if (c.width == 64 && c.threads == 1) {
      // The gated quantity: single-threaded pack-64 vs serial.
      FBT_OBS_GAUGE_SET("fault.pack_speedup_64", speedup);
#if FBT_OBS_ENABLED
      // Pack-efficiency gauges over one grade call (the identity pass).
      const auto groups =
          fbt::obs::registry().counter("fault.pack_groups_simulated").value() -
          groups_before;
      const auto wasted =
          fbt::obs::registry().counter("fault.pack_lanes_wasted").value() -
          wasted_before;
      const auto words = fbt::obs::registry()
                             .counter("fault.pack_diff_words_propagated")
                             .value() -
                         words_before;
      FBT_OBS_GAUGE_SET("fault.pack_bench_groups_simulated",
                        static_cast<double>(groups));
      FBT_OBS_GAUGE_SET("fault.pack_bench_lanes_wasted",
                        static_cast<double>(wasted));
      FBT_OBS_GAUGE_SET("fault.pack_bench_diff_words",
                        static_cast<double>(words));
#endif
    }
  }

  // No-drop pass: every fault stays active through every block, the raw
  // propagation-throughput bound (bench_parallel_grade's regime). Same
  // interleaving.
  fbt::BroadsideFaultSim serial_nd(nl);
  fbt::BroadsideFaultSim packed_nd(nl, 64);
  double serial_nd_best = 1e300;
  double packed_nd_best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    serial_nd_best =
        std::min(serial_nd_best, timed_grade(serial_nd, tests, faults, kNoDrop));
    packed_nd_best =
        std::min(packed_nd_best, timed_grade(packed_nd, tests, faults, kNoDrop));
  }
  const GradeRun serial_nodrop =
      identity_grade(serial_nd, tests, faults, kNoDrop);
  const GradeRun packed_nodrop =
      identity_grade(packed_nd, tests, faults, kNoDrop);
  const bool nodrop_identical = same_results(packed_nodrop, serial_nodrop);
  all_identical = all_identical && nodrop_identical;
  const double nodrop_speedup =
      packed_nd_best > 0 ? serial_nd_best / packed_nd_best : 0.0;
  table.add_row(
      {"nodrop serial", fbt::Table::num(serial_nd_best, 2), "1.00", "ref"});
  table.add_row({"nodrop w64", fbt::Table::num(packed_nd_best, 2),
                 fbt::Table::num(nodrop_speedup, 2),
                 nodrop_identical ? "yes" : "NO"});
  FBT_OBS_GAUGE_SET("fault.pack_nodrop_speedup_64", nodrop_speedup);

  table.print();
  std::printf("[bench_ppsfp] identical=%s done in %s\n",
              all_identical ? "yes" : "NO", total.pretty().c_str());

  fbt::obs::write_bench_report(
      "ppsfp", {{"target", target_name},
                {"tests", std::to_string(tests.size())},
                {"faults", std::to_string(faults.size())},
                {"repeats", std::to_string(repeats)},
                {"detect_limit", std::to_string(detect_limit)},
                {"hw_threads", std::to_string(hw)},
                {"identical", all_identical ? "yes" : "no"}});
  return all_identical ? 0 : 1;
}
