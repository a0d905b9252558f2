// Derived run analytics: pure functions of the event journal that turn raw
// provenance events into the summaries a human (or the fbt_report
// dashboard) actually reads -- the coverage-over-tests convergence curve and
// the per-segment yield table. Rendered into every run report under the
// "analytics" key (schema version 2).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event_journal.hpp"

namespace fbt::obs {

/// Cumulative detected-fault count after `tests` applied tests (one point
/// per 64-test grading block of an accepted segment, downsampled).
struct ConvergencePoint {
  std::uint64_t tests = 0;
  std::uint64_t detected = 0;

  bool operator==(const ConvergencePoint&) const = default;
};

/// One accepted segment: what it cost and what it caught.
struct SegmentYieldRow {
  std::uint64_t sequence = 0;
  std::uint64_t segment = 0;
  std::uint64_t seed = 0;
  std::uint64_t tests = 0;
  std::uint64_t newly_detected = 0;
  double peak_swa = 0.0;

  bool operator==(const SegmentYieldRow&) const = default;
};

struct RunAnalytics {
  std::vector<ConvergencePoint> convergence;
  std::vector<SegmentYieldRow> segment_yield;
};

/// Derives analytics from journal events ("grade_block" -> convergence,
/// "seed_accepted" -> yield rows). The convergence curve is downsampled to
/// at most `max_convergence_points` (always keeping the final point).
/// Deterministic.
RunAnalytics derive_analytics(const std::vector<JournalEvent>& events,
                              std::size_t max_convergence_points = 128);

}  // namespace fbt::obs
