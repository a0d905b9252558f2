// Threaded PPSFP fault-grading throughput on one registry circuit.
//
// Grades the same random broadside test set against the full collapsed fault
// list with the serial reference engine (pack width 1) and with the PPSFP
// engine at pack width 64 on 1, 2, 4 and hardware_concurrency walker
// threads, verifying bit-identical detect counts at every configuration. A
// high detect limit keeps every fault active so every engine does the full
// propagation work -- this is the throughput bound the seed-sweep
// experiments (Tables 4.1-4.6) sit on. Writes BENCH_parallel_grade.json with
// per-configuration timings and speedups over the serial reference; exits 1
// when any configuration's counts differ.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  // des_perf is the largest registry circuit (4800 gates, 1200 flops).
  const std::string target_name = cli.get("target", "des_perf");
  const auto num_tests = static_cast<std::size_t>(cli.get_int("tests", 256));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 3));
  constexpr std::uint32_t kNoDrop = 1u << 30;  // keep every fault active

  // On SIGINT/SIGTERM: flush the journal + write the (partial) bench
  // report before exiting with the conventional 128+signum status.
  fbt::serve::GracefulShutdown shutdown([](int sig) {
    std::fprintf(stderr, "[bench_parallel_grade] caught signal %d, flushing report\n",
                 sig);
    fbt::obs::write_bench_report("parallel_grade", {{"interrupted", "yes"}});
    std::_Exit(fbt::serve::GracefulShutdown::exit_status(sig));
  });

  fbt::Timer total;
  const fbt::Netlist nl = fbt::load_benchmark(target_name);
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  const fbt::TestSet tests = random_tests(nl, num_tests, 0xbadcafeULL);

  std::printf("[bench_parallel_grade] target=%s tests=%zu faults=%zu "
              "hw_threads=%zu\n",
              target_name.c_str(), tests.size(), faults.size(),
              fbt::jobs::JobSystem::resolve_threads(0));

  // Serial reference: best of `repeats`.
  fbt::BroadsideFaultSim serial(nl);
  std::vector<std::uint32_t> serial_counts;
  double serial_ms = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    std::vector<std::uint32_t> counts(faults.size(), 0);
    fbt::Timer t;
    serial.grade(tests, faults, counts, kNoDrop);
    serial_ms = std::min(serial_ms, t.ms());
    serial_counts = std::move(counts);
  }
  FBT_OBS_GAUGE_SET("fault.parallel_bench_serial_ms", serial_ms);

  fbt::Table table("Parallel fault grading (" + target_name + ", " +
                   std::to_string(tests.size()) + " tests, " +
                   std::to_string(faults.size()) + " faults)");
  table.set_header({"engine", "grade ms", "speedup", "identical"});
  table.add_row({"serial", fbt::Table::num(serial_ms, 2), "1.00", "ref"});

  std::vector<std::size_t> configs = {1, 2, 4};
  const std::size_t hw = fbt::jobs::JobSystem::resolve_threads(0);
  if (std::find(configs.begin(), configs.end(), hw) == configs.end()) {
    configs.push_back(hw);
  }
  bool all_identical = true;
  for (const std::size_t threads : configs) {
    fbt::BroadsideFaultSim packed(nl, 64, threads);
    std::vector<std::uint32_t> counts;
    double best_ms = 1e300;
    for (std::size_t r = 0; r < repeats; ++r) {
      std::vector<std::uint32_t> c(faults.size(), 0);
      fbt::Timer t;
      packed.grade(tests, faults, c, kNoDrop);
      best_ms = std::min(best_ms, t.ms());
      counts = std::move(c);
    }
    const bool identical = counts == serial_counts;
    all_identical = all_identical && identical;
    const double speedup = best_ms > 0 ? serial_ms / best_ms : 0.0;
    const std::string label = std::to_string(threads) + "t";
    table.add_row({"w64x" + label, fbt::Table::num(best_ms, 2),
                   fbt::Table::num(speedup, 2), identical ? "yes" : "NO"});
    // Dynamic metric names: bypass the macro (it caches one name per call
    // site) and talk to the registry directly.
    fbt::obs::registry()
        .gauge("fault.parallel_bench_" + label + "_ms")
        .set(best_ms);
    fbt::obs::registry()
        .gauge("fault.parallel_bench_speedup_" + label)
        .set(speedup);
    if (threads == 4) {
      FBT_OBS_GAUGE_SET("fault.parallel_speedup_4t", speedup);
    }
  }
  table.print();
  std::printf("[bench_parallel_grade] identical=%s done in %s\n",
              all_identical ? "yes" : "NO", total.pretty().c_str());

  fbt::obs::write_bench_report(
      "parallel_grade",
      {{"target", target_name},
       {"tests", std::to_string(tests.size())},
       {"faults", std::to_string(faults.size())},
       {"repeats", std::to_string(repeats)},
       {"hw_threads", std::to_string(hw)},
       {"identical", all_identical ? "yes" : "no"}});
  return all_identical ? 0 : 1;
}
