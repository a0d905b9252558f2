// Parallel broadside transition-fault grading.
//
// Shards the fault list into contiguous ranges; every shard owns a private
// BroadsideFaultSim (its own BitSim replica) and replays the same 64-test
// blocks over its shard only. Shards are dispatched as tasks on a
// work-stealing JobSystem (the process-wide pool by default), so many
// concurrent experiments multiplex one set of threads. Because detection of
// one fault never depends on another fault's counts, merging the per-shard
// results by shard index reproduces the serial engine bit for bit --
// identical detect_count vectors and provenance for any shard count and any
// scheduler interleaving. The serial engine remains the reference; one shard
// short-circuits to it. Detection matrices are built serially only
// (BroadsideFaultSim::detection_matrix).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "jobs/job_system.hpp"

namespace fbt {

class ParallelBroadsideFaultSim {
 public:
  /// `num_threads` = 0 selects hardware_concurrency (JobSystem's rule); it
  /// names the shard count. Execution multiplexes `jobs` (the process-wide
  /// pool when null); `jobs` must outlive this object. `fault_pack_width`
  /// > 1 switches every shard to the PPSFP engine (threads x pack_width
  /// effective fault parallelism); `flat` optionally shares a pre-built CSR
  /// of `netlist` with the shards (nullptr builds one, once, when packed).
  explicit ParallelBroadsideFaultSim(
      const Netlist& netlist, std::size_t num_threads = 0,
      jobs::JobSystem* jobs = nullptr, std::uint32_t fault_pack_width = 1,
      std::shared_ptr<const FlatFanins> flat = nullptr);

  /// Shard count (>= 1) after resolving the knob.
  std::size_t num_threads() const { return shard_sims_.size(); }

  /// Resolved per-shard fault pack width (>= 1).
  std::uint32_t fault_pack_width() const {
    return shard_sims_[0]->fault_pack_width();
  }

  /// Same contract as BroadsideFaultSim::grade, bit-identical results --
  /// including `provenance`, whose per-shard pieces are merged back into the
  /// canonical order the serial engine produces (first hits sorted by fault
  /// index, per-block drop counts summed across shards).
  std::size_t grade(std::span<const BroadsideTest> tests,
                    const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr);

  /// Bytes owned by the per-worker simulator replicas (resource telemetry).
  std::uint64_t footprint_bytes() const;

 private:
  struct Shard {
    std::size_t begin = 0;  ///< first fault index (inclusive)
    std::size_t end = 0;    ///< last fault index (exclusive)
  };

  /// Contiguous near-equal split of `num_faults` over the workers; shards
  /// past the fault count come back empty.
  std::vector<Shard> make_shards(std::size_t num_faults) const;

  const Netlist* netlist_;
  jobs::JobSystem* jobs_;  ///< not owned; the shared execution substrate
  std::vector<std::unique_ptr<BroadsideFaultSim>> shard_sims_;  // per shard
};

}  // namespace fbt
