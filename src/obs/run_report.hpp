// Machine-readable run reports: one JSON document per tool run carrying the
// build identity (git SHA), the tool's configuration, the phase-trace
// summary, a snapshot of every registered metric, and analytics derived from
// the event journal. Bench harnesses write these as BENCH_<name>.json so the
// perf trajectory is diffable across PRs (`tools/fbt_report diff` gates CI
// on them).
//
// Schema (version 6) -- keys are emitted in this fixed order, metric and
// config keys sorted by name, so reports diff cleanly:
//
//   {
//     "schema_version": 6,
//     "tool": "bench_table4_1",
//     "git_sha": "abc1234",
//     "timestamp_utc": "2026-08-05T12:00:00Z",
//     "config": {"target": "spi", ...},
//     "phases": [{"name": "calibrate", "count": 1, "total_ms": 12.345,
//                 "self_ms": 12.345, "rss_delta_bytes": 262144,
//                 "alloc_bytes": 106496, "alloc_count": 2,
//                 "children": [...]}, ...],
//     "counters": {"bist.lfsr_cycles": 4096, ...},
//     "gauges": {"flow.fault_coverage_percent": 91.2, ...},
//     "histograms": {"fault.grade_duration_ms":
//        {"count": 7, "sum": 3.5, "mean": 0.5, "p50": 0.4, "p90": 1.2,
//         "p99": 1.9, "p99_clamped": false,
//         "buckets": [{"le": 0.1, "count": 3}, ..., {"le": "inf", "count": 0}]}},
//     "analytics": {
//       "convergence": [{"tests": 64, "detected": 321}, ...],
//       "segment_yield": [{"sequence": 0, "segment": 0, "seed": 123,
//                          "tests": 100, "newly_detected": 42,
//                          "peak_swa": 12.5}, ...]},
//     "jobs": {"workers": 4, "submitted": 100, "executed": 100,
//              "busy_ms": 120.000, "idle_ms": 280.000, "utilization": 0.3},
//     "memory": {
//       "peak_rss_bytes": 104857600,
//       "current_rss_bytes": 94371840,
//       "allocated_bytes": 1048576,
//       "allocation_count": 12,
//       "footprints": {"fault_list": 106496, "netlist": 5242880, ...},
//       "bytes_per_gate": 123.4,
//       "bytes_per_fault": 56.7}
//   }
//
// Version history: v1 (PR 1) had neither "analytics" nor the histogram
// mean/p50/p90 summary values; v2 (PR 5) added them; v3 adds the "memory"
// section and the per-phase rss_delta_bytes / alloc_bytes / alloc_count
// fields; v4 (scheduler telemetry) adds the "jobs" utilization section and
// the histogram p99 / p99_clamped summary values (p99_clamped is true when
// the rank landed in the overflow bucket, so the reported p99 is only a
// lower bound -- see obs::histogram_quantile); v5 drops the analytics
// "speculation" totals, since the candidate-seed search has one scalar path;
// v6 drops the "jobs" steals count, since the job pool is one FIFO queue.
// Consumers must tolerate a missing "memory" or "jobs" section, an extra
// analytics "speculation" object and an extra "jobs" steals count (v2-v5
// reports remain renderable and diffable; absent quantities diff as 0). Histogram summaries are guarded: a
// histogram with no samples renders mean/p50/p90/p99 as 0, never NaN.
// bytes_per_gate / bytes_per_fault divide the footprint total by the
// flow.num_gates / flow.num_faults gauges (0 when the gauge is unset).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/resource.hpp"

namespace fbt::obs {

/// Scheduler utilization for the "jobs" section (schema v4): lifetime totals
/// of the process-wide jobs.* metrics, with busy/idle derived against the
/// wall time since the trace epoch. All zeros when no JobSystem ran (or
/// under FBT_OBS=OFF, where busy-time accounting compiles away).
struct JobsSummary {
  std::uint64_t workers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  double busy_ms = 0.0;
  double idle_ms = 0.0;      ///< workers * elapsed - busy, floored at 0
  double utilization = 0.0;  ///< busy / (workers * elapsed), in [0, 1]
};

/// Everything that goes into one report. Fields are plain data so tests can
/// build a fixed instance and pin the rendered bytes.
struct RunReportData {
  int schema_version = 6;
  std::string tool;
  std::string git_sha;
  std::string timestamp_utc;
  std::map<std::string, std::string> config;
  std::vector<PhaseSummary> phases;
  MetricsSnapshot metrics;
  RunAnalytics analytics;
  JobsSummary jobs;
  MemoryReport memory;
};

/// Fills a report from the process-wide state: git SHA baked in at build
/// time (or "unknown"), current UTC time, the global phase trace, and a
/// metrics snapshot (core counters pre-registered so they always appear).
RunReportData collect_run_report(
    const std::string& tool,
    const std::map<std::string, std::string>& config);

/// Deterministic JSON rendering of `data` (no global state consulted).
std::string render_run_report(const RunReportData& data);

/// Renders and writes to `path`. Returns false (and prints to stderr) on
/// I/O failure.
bool write_run_report(const std::string& path, const RunReportData& data);

/// Convenience for bench harnesses: collects a report for tool
/// "bench_<name>" and writes BENCH_<name>.json into $FBT_BENCH_DIR (default:
/// current directory). Prints the path written.
bool write_bench_report(const std::string& name,
                        const std::map<std::string, std::string>& config);

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
std::string json_escape(const std::string& s);

}  // namespace fbt::obs
