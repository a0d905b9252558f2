// Bit-parallel broadside transition-fault simulator.
//
// Simulates 64 two-pattern tests at a time: frame 1 establishes launch values
// and the captured state s2; frame 2 checks stuck-at-initial-value detection
// via event-driven single-fault propagation to the primary outputs and the
// flip-flop D inputs. Supports fault dropping (n-detect) for test-set grading
// and a full per-test detection matrix for the transition-path-delay-fault
// engine of Chapter 2.
//
// Two propagation engines share the good-machine block evaluation, which
// runs once per 64-test block on the calling thread:
//  * serial (fault_pack_width == 1, the reference): one fault at a time, 64
//    tests per word (BitSim::fault_propagate), on the calling thread;
//  * PPSFP (fault_pack_width > 1): up to `fault_pack_width` faults per word,
//    one test at a time, against the shared fault-free two-frame trace
//    (PackedFaultProp). With `num_threads` > 1 the block's active fault list
//    is split into contiguous ranges of whole 64-fault groups, one per
//    walker, run as parallel_for tasks on a JobSystem.
// Detect counts and first-detect provenance are bit-identical across pack
// widths and thread counts.
// grade() is the product path -- candidate grading and the §4.3 reduction
// sweep (reduce_groups) both run on it, so both feed fault.tests_graded and
// the fault.pack_* counters. detection_matrix() always runs the serial
// engine, whatever the pack width; its callers (the TPDF engine, the fault
// dictionary, forward-looking compaction) use small test sets.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"
#include "jobs/job_system.hpp"
#include "sim/bitsim.hpp"
#include "sim/packed_faultprop.hpp"

namespace fbt {

/// First detection of one fault within a single grade() call: the fault went
/// from zero credit to detected, and `test` is the lowest-index test that
/// caught it.
struct FirstDetectHit {
  std::uint32_t fault = 0;  ///< index into the graded fault list
  std::uint32_t test = 0;   ///< index into the graded test span

  bool operator==(const FirstDetectHit&) const = default;
};

/// Drop statistics for one 64-test grading block.
struct GradeBlockStat {
  std::uint32_t first_test = 0;      ///< index of the block's first test
  std::uint32_t num_tests = 0;       ///< tests in the block (<= 64)
  std::uint32_t newly_at_limit = 0;  ///< faults reaching detect_limit here

  bool operator==(const GradeBlockStat&) const = default;
};

/// Optional provenance from one grade() call. Both vectors are canonical --
/// first_hits sorted by fault index, blocks in test order covering every
/// block any still-active fault was graded against -- so every engine and
/// thread count produces bit-identical provenance.
struct GradeProvenance {
  std::vector<FirstDetectHit> first_hits;
  std::vector<GradeBlockStat> blocks;
};

/// Bytes owned by a detection matrix as returned by detection_matrix()
/// (resource telemetry; counts content, not allocator slack).
inline std::uint64_t detection_matrix_footprint_bytes(
    const std::vector<std::vector<std::uint64_t>>& matrix) {
  std::uint64_t bytes =
      sizeof(matrix) + matrix.size() * sizeof(std::vector<std::uint64_t>);
  for (const std::vector<std::uint64_t>& row : matrix) {
    bytes += row.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

class BroadsideFaultSim {
 public:
  /// `fault_pack_width` > 1 selects the PPSFP engine: the active fault list
  /// is walked in groups of up to `fault_pack_width` (clamped to [1, 64])
  /// bit-lanes propagated together against the shared good-machine trace.
  /// 1 (and 0) keeps the serial reference engine. `num_threads` PPSFP
  /// walkers (0 = hardware concurrency, JobSystem's rule) split each block's
  /// fault groups between them as parallel_for indices on `jobs` (the
  /// process-wide pool when null; it must outlive this object); the serial
  /// engine ignores both.
  explicit BroadsideFaultSim(const Netlist& netlist,
                             std::uint32_t fault_pack_width = 1,
                             std::size_t num_threads = 1,
                             jobs::JobSystem* jobs = nullptr);

  /// Resolved pack width (>= 1; > 1 means the PPSFP engine is active).
  std::uint32_t fault_pack_width() const { return pack_width_; }

  /// Grades `tests` against `faults` with fault dropping: a fault whose
  /// detection count in `detect_count` reaches `detect_limit` is skipped.
  /// Updates `detect_count` in place and returns the number of faults whose
  /// count first reached `detect_limit` during this call. When `provenance`
  /// is non-null it is overwritten with this call's first-detect hits and
  /// per-block drop stats.
  std::size_t grade(std::span<const BroadsideTest> tests,
                    const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr);

  /// Per-test detection bits for every fault (no dropping). Row f holds
  /// ceil(tests/64) words; bit t of word t/64 is 1 when test t detects fault
  /// f. Serial engine at any pack width; intended for small test sets.
  std::vector<std::vector<std::uint64_t>> detection_matrix(
      std::span<const BroadsideTest> tests, const TransitionFaultList& faults);

  /// Single-query convenience: does `test` detect `fault`?
  bool detects(const BroadsideTest& test, const TransitionFault& fault);

  /// Bytes owned by the embedded simulators, PPSFP walkers and frame buffers
  /// (resource telemetry).
  std::uint64_t footprint_bytes() const;

 private:
  // One PPSFP walker: a packed kernel bound to the block's good trace, the
  // scratch of the chunk it is filling and its tallies for one grade() call.
  // Walkers own disjoint fault-group ranges, so they share nothing writable.
  struct Walker {
    std::unique_ptr<PackedFaultProp> prop;
    std::array<NodeId, 64> chunk_sites{};         // per lane: fault site
    std::array<std::uint32_t, 64> chunk_fault{};  // per lane: fault index
    std::array<std::uint32_t, 64> chunk_pos{};    // per lane: active position
    std::vector<FirstDetectHit> first_hits;
    std::uint64_t groups = 0;        // chunks propagated
    std::uint64_t lanes_wasted = 0;  // idle lanes over those chunks
  };

  // The loaded block as the PPSFP walkers see it (read-only during a walk).
  struct PackedBlock {
    std::span<const std::uint32_t> active;
    const TransitionFaultList* faults = nullptr;
    std::span<const std::uint32_t> detect_count;
    std::uint32_t detect_limit = 1;
    std::size_t first = 0;    // index of the block's first test
    std::size_t count = 0;    // tests in the block
    std::size_t ngroups = 0;  // 64-fault groups of the active list
    bool provenance = false;  // record first hits
  };

  // Loads up to 64 tests into the simulator, evaluates both frames, and
  // leaves frame-1 values in v1_ and frame-2 values in the BitSim.
  void load_block(std::span<const BroadsideTest> tests, std::size_t first,
                  std::size_t count);

  // Detection mask of `fault` over the currently loaded block (serial
  // engine).
  std::uint64_t fault_mask(const TransitionFault& fault);

  // Copies the loaded block's frame-2 fault-free words out of the BitSim
  // into good2_values_, the trace every walker binds (PPSFP engine).
  void capture_good_trace();

  // PPSFP walk of fault groups [g_begin, g_end) of the loaded block on
  // walker `w`: binds the good trace, transposes the groups' launch masks
  // and credits block_hits_ test by test.
  void walk_groups(Walker& w, const PackedBlock& block, std::size_t g_begin,
                   std::size_t g_end);

  // Launch mask of `fault` over the currently loaded block: tests whose
  // fault-free trace makes the line transition the faulted way.
  std::uint64_t launch_mask(const TransitionFault& fault) const {
    const std::uint64_t w1 = v1_values_[fault.line];
    const std::uint64_t w2 = good2_values_[fault.line];
    return block_mask_ & (fault.rising ? (~w1 & w2) : (w1 & ~w2));
  }

  const Netlist* netlist_;
  BitSim sim_;
  std::vector<std::uint64_t> v1_values_;  // frame-1 value words per node
  std::vector<std::uint64_t> state2_;     // captured state words per flop
  std::vector<std::uint64_t> pack_scratch_;  // source-word packing scratch
  std::uint64_t block_mask_ = 0;          // valid-pattern bits of the block

  // PPSFP engine state (empty when pack_width_ == 1). Scheduling is
  // test-major: each block transposes the active faults' launch masks into
  // per-test lane words (launch_tx_), and every propagation packs up to
  // pack_width_ still-needy faults of one test into full lane words (fixed
  // fault groups would leave most lanes idle -- a typical test launches only
  // a few percent of any 64-fault group).
  std::uint32_t pack_width_ = 1;
  jobs::JobSystem* jobs_ = nullptr;  // not owned; null = global pool
  std::vector<Walker> walkers_;      // one per thread; [0] walks inline
  std::vector<std::uint64_t> good2_values_;  // frame-2 value words per node
  std::vector<std::uint64_t> launch_tx_;  // [t * groups + g]: launch lanes
  std::vector<std::uint64_t> needy_;      // per active-list position: still
                                          // short of the limit this block
  std::vector<NodeId> site_internal_;     // per fault: internal site id
  std::vector<std::uint32_t> block_hits_;  // per fault: hits this block
};

}  // namespace fbt
