// Static test-set compaction by fault simulation (dissertation §4.3's seed
// selection reduction, refs [26][89]).
//
// Two classic passes over an already-generated test set:
//  * reverse-order: grade groups of tests last-to-first with fault dropping,
//    keeping a group only when it detects a fault no later group detects
//    (reduce_groups; reverse_order_compaction is its one-test-per-group
//    case). The sweep runs on the fault grader, so it shares the grader's
//    thread sharding and PPSFP packing and feeds its counters;
//  * forward-looking [89]: first compute, for every fault, the earliest test
//    that detects it; a test is essential if it is the earliest detector of
//    some fault; remaining faults are then credited to kept tests greedily.
//    It consumes the serial no-drop detection matrix, transposed to per-test
//    fault lists (detected_by_test).
// Both preserve complete coverage of the original set.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"
#include "jobs/job_system.hpp"

namespace fbt {

/// per_test[t] lists the indices of the faults test t detects, ascending.
using PerTestFaults = std::vector<std::vector<std::uint32_t>>;

/// Simulates the full detection matrix (no dropping, serial engine) and
/// transposes it to per-test fault lists.
PerTestFaults detected_by_test(const Netlist& netlist, const TestSet& tests,
                               const TransitionFaultList& faults);

/// Indices (into the original set) of the kept tests, ascending.
std::vector<std::size_t> reverse_order_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults);

/// Forward-looking static compaction [89]; usually keeps fewer tests than
/// the reverse-order pass.
std::vector<std::size_t> forward_looking_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults);
std::vector<std::size_t> forward_looking_compaction(
    const PerTestFaults& per_test, std::size_t num_faults);

/// Drops whole groups (e.g. per-seed segments): group g is kept iff it
/// detects a fault that no higher-numbered group detects. `group_of[t]` maps
/// test index to group id (0..num_groups-1); each group's tests must form
/// one contiguous run (fbt::Error otherwise), and a group may be empty.
/// Returns kept group ids, ascending. This is the §4.3 "reduce the number of
/// selected seeds" step. `num_threads`, `jobs` and `fault_pack_width`
/// configure the grader as for ParallelBroadsideFaultSim; the kept set is
/// identical for any setting.
std::vector<std::size_t> reduce_groups(const Netlist& netlist,
                                       const TestSet& tests,
                                       const TransitionFaultList& faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups,
                                       std::size_t num_threads = 1,
                                       jobs::JobSystem* jobs = nullptr,
                                       std::uint32_t fault_pack_width = 1);

}  // namespace fbt
