#include "oracles/calibration.hpp"

#include <algorithm>
#include <vector>

#include "bist/tpg.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace fbt {

FunctionalProfile reference_calibration(const Netlist& target,
                                        const Netlist& driver,
                                        const SwaCalibrationConfig& config,
                                        TransitionPatternStore* store) {
  Tpg tpg(driver, config.tpg);
  SeqSim driver_sim(driver);
  SeqSim target_sim(target);
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

}  // namespace fbt
