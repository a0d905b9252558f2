#include "bist/embedded.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "bist/packed_tpg.hpp"
#include "obs/instrument.hpp"
#include "sim/packed_seqsim.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {

namespace {

FunctionalProfile run_calibration(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config, TransitionPatternStore* store) {
  require(driver.num_outputs() >= target.num_inputs(), "measure_swa_func",
          "driving block has fewer outputs than the target has inputs");
  require(config.num_sequences >= 1 && config.sequence_length >= 2,
          "measure_swa_func", "need at least one sequence of length >= 2");
  FBT_OBS_PHASE("calibrate");

  Tpg tpg(driver, config.tpg);
  PackedTpg packed_tpg(tpg);
  PackedSeqSim driver_sim(driver);
  PackedSeqSim target_sim(target);
  Pcg32 rng(config.rng_seed, 0x6a09e667f3bcc909ULL);
  std::vector<std::uint32_t> seeds(config.num_sequences);
  for (std::uint32_t& seed : seeds) seed = rng.next() | 1u;

  // Lane k of a pass runs sequence base + k. The pattern store is capped and
  // keeps the first patterns it sees, so it is filled sequence by sequence:
  // one lane per pass.
  const std::size_t lanes_per_pass =
      store == nullptr ? PackedSeqSim::kLanes : 1;
  std::vector<std::uint64_t> driver_pi(driver.num_inputs(), 0);
  std::vector<std::uint64_t> target_pi(target.num_inputs(), 0);
  std::array<std::uint32_t, PackedSeqSim::kLanes> toggles{};
  std::uint32_t peak_toggles = 0;
  for (std::size_t base = 0; base < seeds.size(); base += lanes_per_pass) {
    const std::size_t lanes = std::min(lanes_per_pass, seeds.size() - base);
    packed_tpg.reseed(std::span(seeds).subspan(base, lanes));
    driver_sim.load_reset_state();
    target_sim.load_reset_state();
    for (std::size_t c = 0; c < config.sequence_length; ++c) {
      packed_tpg.next_vectors(driver_pi);
      driver_sim.step(driver_pi, {});
      for (std::size_t i = 0; i < target_pi.size(); ++i) {
        target_pi[i] = driver_sim.value(driver.outputs()[i]);
      }
      // SWA(0) of each sequence is undefined (the simulator counts 0 there).
      target_sim.step(target_pi, toggles);
      peak_toggles = std::max(
          peak_toggles, *std::max_element(toggles.begin(),
                                          toggles.begin() + lanes));
      if (store != nullptr && toggles[0] > 0) {
        // Lane 0's pattern, as make_transition_pattern builds it from bytes.
        TransitionPattern pattern(target.size());
        const std::span<const std::uint64_t> cur = target_sim.values();
        const std::span<const std::uint64_t> prev = target_sim.prev_values();
        for (NodeId id = 0; id < target.size(); ++id) {
          if ((cur[id] ^ prev[id]) & 1) pattern.mark(id, cur[id] & 1);
        }
        store->record(std::move(pattern));
      }
    }
  }
  FunctionalProfile profile;
  profile.peak_percent = switching_percent(peak_toggles, target.num_lines());
  return profile;
}

}  // namespace

SwaCalibration measure_swa_func(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config,
    std::shared_ptr<const FlatFanins> /*target_flat*/) {
  return {run_calibration(target, driver, config, nullptr).peak_percent};
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
