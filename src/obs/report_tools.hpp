// Post-processing of run reports for humans and for CI: regression diffing
// of two BENCH_*.json documents with configurable thresholds (the CI gate),
// and rendering a report + its event journal into a self-contained HTML
// dashboard. Consumed by tools/fbt_report; pure functions over parsed JSON
// so tests can drive them without touching the filesystem.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace fbt::obs {

/// What counts as a regression when diffing baseline -> current. Negative
/// threshold disables that check.
struct DiffThresholds {
  /// Max allowed drop in gauge flow.fault_coverage_percent (absolute
  /// percentage points).
  double max_coverage_drop = 0.5;
  /// Max allowed increase in gauge flow.num_tests, in percent of baseline.
  double max_tests_increase_percent = 20.0;
  /// Max allowed increase in summed top-level phase total_ms, in percent of
  /// baseline. Disabled by default: wall time is machine-dependent, so CI
  /// gates only the deterministic quantities unless explicitly asked.
  double max_walltime_increase_percent = -1.0;
  /// Max allowed increase in memory.peak_rss_bytes, in percent of baseline.
  /// Disabled by default: RSS depends on the allocator and the machine.
  double max_peak_rss_increase_percent = -1.0;
  /// Max allowed increase in memory.bytes_per_gate, in percent of baseline.
  /// Disabled by default; bytes_per_gate is derived from deterministic
  /// content-byte footprints, so a tight gate (~10%) is safe to opt into.
  double max_bytes_per_gate_increase_percent = -1.0;
  /// Minimum required value of the current report's serve.warm_speedup
  /// gauge (cold latency / warm latency from bench_serve). Disabled by
  /// default; the serve CI job gates it at 10.
  double min_warm_speedup = -1.0;
  /// Minimum required value of the current report's fault.pack_speedup_64
  /// gauge (serial grade walltime / pack-width-64 grade walltime from
  /// bench_ppsfp). Disabled by default; the ppsfp CI job gates it at 4.
  double min_pack_speedup = -1.0;
  /// Max allowed increase of the obs.flow_run_ms gauge (min-of-N flow
  /// walltime from bench_obs_overhead), in percent of baseline. Diff an
  /// FBT_OBS=OFF report (baseline) against the ON report (current) to gate
  /// the cost of instrumentation; the CI obs_overhead job uses 2. Disabled
  /// by default.
  double max_obs_overhead_pct = -1.0;
};

struct DiffResult {
  bool regression = false;
  /// One line per violated threshold, empty when regression == false.
  std::vector<std::string> violations;
  /// Human-readable delta summary (always filled): the gated quantities
  /// first, then every counter/gauge whose value changed.
  std::string summary_text;
};

/// Compares two parsed run reports. Never throws; missing fields are treated
/// as 0 (a baseline without coverage gauges simply cannot regress).
DiffResult diff_run_reports(const JsonValue& baseline, const JsonValue& current,
                            const DiffThresholds& thresholds);

/// Renders a parsed run report (plus the raw NDJSON journal text, may be
/// empty) into a single self-contained HTML page: config/gauge/counter
/// tables, the convergence curve as an inline SVG, the segment-yield table,
/// phase timings, and a capped tail of the journal. Reports of schema v2-v4
/// still carry an analytics "speculation" object; it is not rendered.
std::string render_html_dashboard(const JsonValue& report,
                                  const std::string& journal_ndjson);

}  // namespace fbt::obs
