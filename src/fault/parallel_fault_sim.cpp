#include "fault/parallel_fault_sim.hpp"

#include <algorithm>
#include <atomic>

#include "obs/instrument.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fbt {

ParallelBroadsideFaultSim::ParallelBroadsideFaultSim(
    const Netlist& netlist, std::size_t num_threads, jobs::JobSystem* jobs,
    std::uint32_t fault_pack_width, std::shared_ptr<const FlatFanins> flat)
    : netlist_(&netlist),
      jobs_(jobs != nullptr ? jobs : &jobs::global_jobs()) {
  const std::size_t shards = jobs::JobSystem::resolve_threads(num_threads);
  if (fault_pack_width > 1 && flat == nullptr) {
    // One immutable CSR shared by every shard's packed kernel.
    flat = std::make_shared<const FlatFanins>(netlist);
  }
  shard_sims_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shard_sims_.push_back(
        std::make_unique<BroadsideFaultSim>(netlist, fault_pack_width, flat));
  }
}

std::vector<ParallelBroadsideFaultSim::Shard>
ParallelBroadsideFaultSim::make_shards(std::size_t num_faults) const {
  const std::size_t shards = shard_sims_.size();
  std::vector<Shard> out(shards);
  const std::size_t base = num_faults / shards;
  const std::size_t extra = num_faults % shards;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out[s] = {begin, begin + len};
    begin += len;
  }
  return out;
}

std::size_t ParallelBroadsideFaultSim::grade(
    std::span<const BroadsideTest> tests, const TransitionFaultList& faults,
    std::span<std::uint32_t> detect_count, std::uint32_t detect_limit,
    GradeProvenance* provenance) {
  require(detect_count.size() == faults.size(),
          "ParallelBroadsideFaultSim::grade",
          "detect_count size must equal the fault count");
  if (shard_sims_.size() == 1 || faults.size() < 2 * shard_sims_.size()) {
    // Too few faults to amortize the per-shard block replay. Counted so a
    // report showing parallel_shards_graded == 0 is unambiguous: fallbacks
    // fired (expected on tiny fault lists) vs. parallelism never ran.
    FBT_OBS_COUNTER_ADD("fault.serial_grade_fallbacks", 1);
    return shard_sims_[0]->grade(tests, faults, detect_count, detect_limit,
                                 provenance);
  }
  Timer grade_timer;
  FBT_OBS_GAUGE_SET("fault.parallel_threads", shard_sims_.size());
  const std::vector<Shard> shards = make_shards(faults.size());
  std::atomic<std::size_t> newly_complete{0};
  std::vector<GradeProvenance> shard_prov(
      provenance != nullptr ? shards.size() : 0);
  jobs_->parallel_for(shards.size(), [&](std::size_t s) {
    const Shard& shard = shards[s];
    if (shard.begin == shard.end) return;
    const auto& all = faults.faults();
    std::vector<TransitionFault> sub(
        all.begin() + static_cast<std::ptrdiff_t>(shard.begin),
        all.begin() + static_cast<std::ptrdiff_t>(shard.end));
    const TransitionFaultList shard_faults =
        TransitionFaultList::from_faults(std::move(sub));
    // Disjoint subspan per shard: no write contention on detect_count.
    const std::size_t fresh = shard_sims_[s]->grade(
        tests, shard_faults,
        detect_count.subspan(shard.begin, shard.end - shard.begin),
        detect_limit, provenance != nullptr ? &shard_prov[s] : nullptr);
    newly_complete.fetch_add(fresh, std::memory_order_relaxed);
    FBT_OBS_COUNTER_ADD("fault.parallel_shards_graded", 1);
  });
  if (provenance != nullptr) {
    // Each fault is graded by exactly one shard against the same blocks, so
    // rebasing the shard-local fault indices and re-sorting reproduces the
    // serial engine's canonical hit order. The serial walk ends when its
    // last pending fault drops, i.e. after max-over-shards blocks; summing
    // per-block drops over the shards that reached a block matches it.
    provenance->first_hits.clear();
    provenance->blocks.clear();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (FirstDetectHit hit : shard_prov[s].first_hits) {
        hit.fault += static_cast<std::uint32_t>(shards[s].begin);
        provenance->first_hits.push_back(hit);
      }
      const auto& blocks = shard_prov[s].blocks;
      if (blocks.size() > provenance->blocks.size()) {
        const std::size_t old = provenance->blocks.size();
        provenance->blocks.resize(blocks.size());
        for (std::size_t b = old; b < blocks.size(); ++b) {
          provenance->blocks[b] = {blocks[b].first_test, blocks[b].num_tests,
                                   0};
        }
      }
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        provenance->blocks[b].newly_at_limit += blocks[b].newly_at_limit;
      }
    }
    std::sort(provenance->first_hits.begin(), provenance->first_hits.end(),
              [](const FirstDetectHit& a, const FirstDetectHit& b) {
                return a.fault < b.fault;
              });
  }
  FBT_OBS_HIST_RECORD("fault.parallel_grade_duration_ms", grade_timer.ms());
  return newly_complete.load(std::memory_order_relaxed);
}

std::uint64_t ParallelBroadsideFaultSim::footprint_bytes() const {
  std::uint64_t bytes =
      sizeof(*this) +
      shard_sims_.size() * sizeof(std::unique_ptr<BroadsideFaultSim>);
  for (const auto& sim : shard_sims_) {
    bytes += sim->footprint_bytes();
  }
  return bytes;
}

}  // namespace fbt
