#include "fault/compaction.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "fault/fault_sim.hpp"
#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {

PerTestFaults detected_by_test(const Netlist& netlist, const TestSet& tests,
                               const TransitionFaultList& faults) {
  BroadsideFaultSim sim(netlist);
  const auto matrix = sim.detection_matrix(tests, faults);
  FBT_OBS_FOOTPRINT("fault.detection_matrix",
                    detection_matrix_footprint_bytes(matrix));
  FBT_OBS_ALLOC_CHARGE(detection_matrix_footprint_bytes(matrix));
  PerTestFaults per_test(tests.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t w = 0; w < matrix[f].size(); ++w) {
      std::uint64_t bits = matrix[f][w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        per_test[64 * w + static_cast<std::size_t>(b)].push_back(
            static_cast<std::uint32_t>(f));
      }
    }
  }
  return per_test;
}

std::vector<std::size_t> reverse_order_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults) {
  std::vector<std::size_t> group_of(tests.size());
  std::iota(group_of.begin(), group_of.end(), std::size_t{0});
  return reduce_groups(netlist, tests, faults, group_of, tests.size());
}

std::vector<std::size_t> forward_looking_compaction(
    const PerTestFaults& per_test, std::size_t num_faults) {
  // Earliest detector per fault: a test that is the *first* to detect some
  // fault is essential (no earlier test can replace it, and replacing it
  // with a later one cannot shrink the set below this greedy choice).
  constexpr std::uint32_t kNone = ~0u;
  std::vector<std::uint32_t> first_detector(num_faults, kNone);
  for (std::size_t t = 0; t < per_test.size(); ++t) {
    for (const std::uint32_t f : per_test[t]) {
      if (first_detector[f] == kNone) {
        first_detector[f] = static_cast<std::uint32_t>(t);
      }
    }
  }
  std::vector<std::uint8_t> keep(per_test.size(), 0);
  for (std::size_t f = 0; f < num_faults; ++f) {
    if (first_detector[f] != kNone) keep[first_detector[f]] = 1;
  }
  // Reverse sweep with the forward-looking credit: drop kept tests whose
  // faults are all covered by other kept tests.
  std::vector<std::uint32_t> cover_count(num_faults, 0);
  for (std::size_t t = 0; t < per_test.size(); ++t) {
    if (!keep[t]) continue;
    for (const std::uint32_t f : per_test[t]) ++cover_count[f];
  }
  for (std::size_t t = per_test.size(); t-- > 0;) {
    if (!keep[t]) continue;
    bool droppable = true;
    for (const std::uint32_t f : per_test[t]) {
      if (cover_count[f] <= 1) {
        droppable = false;
        break;
      }
    }
    if (!droppable) continue;
    keep[t] = 0;
    for (const std::uint32_t f : per_test[t]) --cover_count[f];
  }
  std::vector<std::size_t> kept;
  for (std::size_t t = 0; t < per_test.size(); ++t) {
    if (keep[t]) kept.push_back(t);
  }
  return kept;
}

std::vector<std::size_t> forward_looking_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults) {
  return forward_looking_compaction(detected_by_test(netlist, tests, faults),
                                    faults.size());
}

std::vector<std::size_t> reduce_groups(const Netlist& netlist,
                                       const TestSet& tests,
                                       const TransitionFaultList& faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups,
                                       std::size_t num_threads,
                                       jobs::JobSystem* jobs,
                                       std::uint32_t fault_pack_width) {
  FBT_OBS_PHASE("reduce");
  require(group_of.size() == tests.size(), "reduce_groups",
          "group_of must map every test");
  // Group g owns tests [first[g], first[g] + size[g]).
  std::vector<std::size_t> first(num_groups, 0);
  std::vector<std::size_t> size(num_groups, 0);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const std::size_t g = group_of[t];
    require(g < num_groups, "reduce_groups", "group id out of range");
    if (size[g] == 0) first[g] = t;
    require(first[g] + size[g] == t, "reduce_groups",
            "each group's tests must form one contiguous run");
    ++size[g];
  }

  // Reverse-order sweep with fault dropping: grading group g at limit 1
  // credits only faults no later group detected, so a positive return is
  // exactly "g detects something the later groups miss".
  BroadsideFaultSim sim(netlist, fault_pack_width, num_threads, jobs);
  std::vector<std::uint32_t> covered(faults.size(), 0);
  const std::span<const BroadsideTest> all(tests);
  std::vector<std::size_t> kept;
  for (std::size_t g = num_groups; g-- > 0;) {
    if (sim.grade(all.subspan(first[g], size[g]), faults, covered, 1) > 0) {
      kept.push_back(g);
    }
  }
  std::reverse(kept.begin(), kept.end());
  return kept;
}

}  // namespace fbt
