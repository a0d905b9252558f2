// The packed SWA_func calibration against the scalar oracle
// (oracles/calibration.hpp): bit-identical SWA_func and the same functional
// pattern store, across drivers, sequence counts that fill one, several and
// partial 64-lane passes, sequence lengths and seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bist/embedded.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "oracles/calibration.hpp"

namespace fbt {
namespace {

struct Block {
  std::string name;
  Netlist target;
  Netlist driver;
};

Block make_block(const std::string& target_name,
                 const std::string& driver_name) {
  Netlist target = load_benchmark(target_name);
  Netlist driver = driver_name == "buffers"
                       ? make_buffers_block(target.num_inputs())
                       : load_benchmark(driver_name);
  return {driver_name + "->" + target_name, std::move(target),
          std::move(driver)};
}

/// measure_swa_func equals the oracle's peak exactly (the same double).
void expect_identical_swa(const Block& block, std::size_t num_sequences,
                          std::size_t sequence_length,
                          std::uint64_t rng_seed) {
  SwaCalibrationConfig config;
  config.num_sequences = num_sequences;
  config.sequence_length = sequence_length;
  config.rng_seed = rng_seed;
  const double packed =
      measure_swa_func(block.target, block.driver, config).peak_percent;
  const double scalar =
      reference_calibration(block.target, block.driver, config, nullptr)
          .peak_percent;
  EXPECT_EQ(packed, scalar) << block.name << " " << num_sequences << "x"
                            << sequence_length << " seed " << rng_seed;
}

const std::vector<std::size_t> kSequenceCounts = {1, 4, 63, 64, 65, 130};

TEST(CalibrationIdentity, SmallDriversMatchTheScalarOracle) {
  for (const Block& block :
       {make_block("s298", "s386"), make_block("s298", "buffers")}) {
    for (const std::size_t n : kSequenceCounts) {
      for (const std::size_t length : {2, 3, 400}) {
        for (const std::uint64_t seed : {1, 7, 0x5eed}) {
          expect_identical_swa(block, n, length, seed);
        }
      }
    }
  }
}

TEST(CalibrationIdentity, EmbeddedBlockDriversMatchTheScalarOracle) {
  for (const Block& block :
       {make_block("spi", "buffers"), make_block("spi", "wb_dma"),
        make_block("spi", "wb_conmax")}) {
    for (const std::size_t n : kSequenceCounts) {
      for (const std::size_t length : {2, 3}) {
        for (const std::uint64_t seed : {1, 7}) {
          expect_identical_swa(block, n, length, seed);
        }
      }
    }
    // The embedded_block workload's 4x400, and a full pass plus one lane.
    for (const std::uint64_t seed : {1, 7, 0x5eed}) {
      expect_identical_swa(block, 4, 400, seed);
    }
    expect_identical_swa(block, 65, 400, 3);
  }
}

/// measure_functional_profile keeps the oracle's patterns in its order.
void expect_identical_profile(const Block& block, std::size_t num_sequences,
                              std::size_t sequence_length,
                              std::size_t max_patterns, bool saturates) {
  SwaCalibrationConfig config;
  config.num_sequences = num_sequences;
  config.sequence_length = sequence_length;
  const FunctionalProfile packed = measure_functional_profile(
      block.target, block.driver, config, max_patterns);
  TransitionPatternStore store(max_patterns);
  const FunctionalProfile scalar =
      reference_calibration(block.target, block.driver, config, &store);
  EXPECT_EQ(packed.peak_percent, scalar.peak_percent) << block.name;
  EXPECT_EQ(packed.patterns.saturated(), saturates) << block.name;
  EXPECT_EQ(store.saturated(), saturates) << block.name;
  ASSERT_EQ(packed.patterns.size(), store.size()) << block.name;
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(packed.patterns.patterns()[i] == store.patterns()[i])
        << block.name << " pattern " << i;
  }
}

TEST(CalibrationIdentity, PatternStoreMatchesTheScalarOracleInOrder) {
  const Block small = make_block("s298", "s386");
  expect_identical_profile(small, 4, 600, 2048, /*saturates=*/false);
  expect_identical_profile(small, 4, 600, 8, /*saturates=*/true);
  const Block embedded = make_block("spi", "wb_dma");
  expect_identical_profile(embedded, 3, 60, 4096, /*saturates=*/false);
  expect_identical_profile(embedded, 3, 60, 16, /*saturates=*/true);
}

}  // namespace
}  // namespace fbt
