// Scoped phase tracing: RAII spans that nest (calibrate -> construct ->
// grade -> reduce -> cost), record wall time with child attribution, and
// render both a human-readable tree and Chrome `trace_event` JSON
// (chrome://tracing / https://ui.perfetto.dev).
//
// Spans nest per thread; a span closed on a thread with no enclosing span
// becomes a root in the process-wide trace. Hot loops may open many spans
// with the same name -- the renderers aggregate same-name siblings. Every
// span carries a process-unique span_id and the span_id of the span it
// nests under (0 for a root); the Chrome export puts both in each event's
// args. A flow or serve request runs on one thread, so its spans form one
// tree; a parallel_for helper's spans would be roots on the helper's track
// (no product span opens inside one).
//
// Thread safety: the open-span stack is thread_local, the completed-span
// sink (PhaseTrace::instance()) is mutex-guarded, and every span records
// the small sequential id of the thread that opened it (assigned on that
// thread's first span). The Chrome trace emits that id as "tid", so spans
// completed concurrently by different threads land on separate tracks
// instead of interleaving.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fbt::obs {

/// One completed span. Times are microseconds relative to the trace epoch
/// (first use of the trace in this process). RSS is sampled (throttled, see
/// obs/resource.hpp) when the span opens and closes; allocation charges land
/// on the span that was innermost when charge_allocation ran.
struct PhaseNode {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 1;  ///< sequential id of the opening thread (from 1)
  std::uint64_t span_id = 0;         ///< process-unique, assigned at open
  std::uint64_t parent_span_id = 0;  ///< enclosing span; 0 = root
  std::uint64_t rss_open_bytes = 0;   ///< sampled RSS when the span opened
  std::uint64_t rss_close_bytes = 0;  ///< sampled RSS when the span closed
  std::uint64_t alloc_bytes = 0;  ///< bytes charged while innermost
  std::uint64_t alloc_count = 0;  ///< charges while innermost
  std::vector<PhaseNode> children;

  double total_ms() const { return static_cast<double>(dur_us) / 1000.0; }
  /// Wall time not attributed to any child span.
  double self_ms() const;
  /// RSS growth (possibly negative) across the span.
  std::int64_t rss_delta_bytes() const {
    return static_cast<std::int64_t>(rss_close_bytes) -
           static_cast<std::int64_t>(rss_open_bytes);
  }
};

/// Same-name siblings merged: `total_ms`, `rss_delta_bytes`, and the
/// allocation charges sum over `count` spans. Allocation charges are "self"
/// quantities: a child's charges are not included in its parent's.
struct PhaseSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t rss_delta_bytes = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::vector<PhaseSummary> children;
};

/// Process-wide collection of completed root spans.
class PhaseTrace {
 public:
  static PhaseTrace& instance();

  /// Copy of the completed root spans, in completion order.
  std::vector<PhaseNode> roots() const;

  /// Roots with same-name siblings aggregated, recursively (first-seen
  /// order). This is the shape rendered by tree_string() and the run report.
  std::vector<PhaseSummary> summarize() const;

  /// Indented human-readable tree of summarize().
  std::string tree_string() const;

  /// Chrome trace_event JSON array: one complete ("ph":"X") event per
  /// recorded span (not aggregated; args carry span_id/parent_span_id).
  /// Load in chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;

  /// Drops all completed spans (open spans are unaffected and will record
  /// into the cleared trace when they close).
  void clear();

  /// Approximate heap bytes held by the completed spans (the trace buffer's
  /// own footprint, reported into the run report's memory section).
  std::uint64_t footprint_bytes() const;

  /// Wall time since the trace epoch (the clock every span's start_us
  /// reads); the run report's scheduler utilization divides by it.
  static double elapsed_ms();

 private:
  friend class PhaseSpan;
  void add_root(PhaseNode node);

  mutable std::mutex mutex_;
  std::vector<PhaseNode> roots_;
};

/// Aggregates same-name siblings recursively; exposed for tests.
std::vector<PhaseSummary> summarize_phases(const std::vector<PhaseNode>& nodes);

/// RAII phase span. Construction opens the span (nested under the innermost
/// open span on this thread); destruction records it. Prefer the
/// FBT_OBS_PHASE macro in instrumented library code so the span compiles
/// away when observability is disabled.
class PhaseSpan {
 public:
  explicit PhaseSpan(std::string name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
};

namespace detail {

/// Adds an allocation charge to the innermost open span on this thread.
/// Returns false when no span is open (the process totals in obs/resource
/// still record the charge). Called by charge_allocation; not a public API.
bool charge_open_phase(std::uint64_t bytes, std::uint64_t count);

}  // namespace detail

}  // namespace fbt::obs
