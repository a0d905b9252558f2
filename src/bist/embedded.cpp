#include "bist/embedded.hpp"

#include <algorithm>

#include "obs/instrument.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {

namespace {

FunctionalProfile run_calibration(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config, TransitionPatternStore* store,
    std::shared_ptr<const FlatFanins> target_flat = nullptr) {
  require(driver.num_outputs() >= target.num_inputs(), "measure_swa_func",
          "driving block has fewer outputs than the target has inputs");
  require(config.num_sequences >= 1 && config.sequence_length >= 2,
          "measure_swa_func", "need at least one sequence of length >= 2");
  FBT_OBS_PHASE("calibrate");

  Tpg tpg(driver, config.tpg);
  SeqSim driver_sim(driver);
  SeqSim target_sim = target_flat != nullptr
                          ? SeqSim(target, std::move(target_flat))
                          : SeqSim(target);
  Pcg32 rng(config.rng_seed, 0x6a09e667f3bcc909ULL);

  FunctionalProfile profile;
  std::vector<std::uint8_t> driver_pi(driver.num_inputs(), 0);
  std::vector<std::uint8_t> target_pi(target.num_inputs(), 0);
  for (std::size_t s = 0; s < config.num_sequences; ++s) {
    tpg.reseed(rng.next() | 1u);
    driver_sim.load_reset_state();
    target_sim.load_reset_state();
    for (std::size_t c = 0; c < config.sequence_length; ++c) {
      tpg.next_vector_into(driver_pi);
      driver_sim.step(driver_pi);
      for (std::size_t i = 0; i < target_pi.size(); ++i) {
        target_pi[i] = driver_sim.value(driver.outputs()[i]);
      }
      const SeqStep step = target_sim.step(target_pi);
      // SWA(0) of each sequence is undefined (the simulator reports 0 there).
      profile.peak_percent =
          std::max(profile.peak_percent, step.switching_percent);
      if (store != nullptr && step.toggled_lines > 0) {
        store->record(make_transition_pattern(target_sim.prev_values(),
                                              target_sim.values()));
      }
    }
  }
  return profile;
}

}  // namespace

SwaCalibration measure_swa_func(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config,
    std::shared_ptr<const FlatFanins> target_flat) {
  return {run_calibration(target, driver, config, nullptr,
                          std::move(target_flat))
              .peak_percent};
}

FunctionalProfile measure_functional_profile(const Netlist& target,
                                             const Netlist& driver,
                                             const SwaCalibrationConfig& config,
                                             std::size_t max_patterns) {
  FunctionalProfile profile;
  profile.patterns = TransitionPatternStore(max_patterns);
  const FunctionalProfile measured =
      run_calibration(target, driver, config, &profile.patterns);
  profile.peak_percent = measured.peak_percent;
  return profile;
}

}  // namespace fbt
