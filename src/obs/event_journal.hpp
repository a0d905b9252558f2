// Structured event journal: an append-only, process-wide log of typed
// events emitted by the BIST flow (seed tried/accepted/rejected, per-block
// grading progress, session milestones). Events render as NDJSON -- one JSON
// object per line -- so a journal is streamable, greppable, and diffable.
//
// Design constraints, matching the metrics registry:
//  * cheap on the emitting path -- one mutex-guarded vector push per event;
//    events are emitted at segment/block granularity, never per gate;
//  * deterministic -- library code emits events only from the construction
//    loop's single-threaded control flow (worker threads fill provenance
//    structs that are merged deterministically first), so the journal is
//    bit-identical across num_threads for the deterministic event subset
//    (see DESIGN.md "Provenance & convergence");
//  * compiled out -- the FBT_OBS_EVENT macro in obs/instrument.hpp is a
//    no-op when the build sets FBT_OBS_ENABLED=0. The classes here stay
//    available in both builds so tools and tests can use them directly.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbt::obs {

/// One event payload value: unsigned integer, double, or string. Implicit
/// constructors let call sites write `{{"seed", seed}, {"swa", 12.5}}`.
struct EventValue {
  enum class Kind { kUint, kInt, kDouble, kString };

  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_signed_v<T>,
                                         int> = 0>
  EventValue(T v) : kind(Kind::kUint), u(static_cast<std::uint64_t>(v)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>,
                             int> = 0>
  EventValue(T v) : kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  template <typename T, std::enable_if_t<std::is_floating_point_v<T>, int> = 0>
  EventValue(T v) : kind(Kind::kDouble), d(static_cast<double>(v)) {}
  EventValue(const char* v) : kind(Kind::kString), s(v) {}
  EventValue(std::string v) : kind(Kind::kString), s(std::move(v)) {}

  Kind kind = Kind::kUint;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
};

/// One recorded event: a sequence number (assigned at emit, dense from 0), a
/// type tag, and the payload fields in emission order.
struct JournalEvent {
  std::uint64_t seq = 0;
  std::string type;
  std::vector<std::pair<std::string, EventValue>> fields;
};

/// Renders one event as a single-line JSON object:
///   {"seq": 3, "type": "seed_accepted", "seed": 123, "tests": 100}
/// Field order is emission order; "seq" and "type" always lead.
std::string render_event_line(const JournalEvent& event);

/// Append-only event sink. clear() is for tests and fresh tool runs.
class EventJournal {
 public:
  void emit(std::string_view type,
            std::initializer_list<std::pair<std::string_view, EventValue>>
                fields);

  /// Copy of the recorded events [from, size()), in emission order; empty
  /// when `from` is at or past the end.
  std::vector<JournalEvent> events(std::size_t from = 0) const;

  std::size_t size() const;

  /// Whole journal as NDJSON (one render_event_line per event, each
  /// newline-terminated). Empty string when no events were emitted.
  std::string ndjson() const;

  /// Writes ndjson() to `path`. Returns false (and prints to stderr) on I/O
  /// failure.
  bool write_ndjson(const std::string& path) const;

  /// Drops all events and restarts the sequence numbering at 0.
  void clear();

  /// Approximate heap bytes held by the recorded events (the journal
  /// buffer's own footprint, reported into the run report's memory section).
  std::uint64_t footprint_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::vector<JournalEvent> events_;
  std::uint64_t next_seq_ = 0;
};

/// The process-wide journal used by the FBT_OBS_EVENT macro.
EventJournal& journal();

/// RAII tap on the events the constructing thread emits: while it lives,
/// every EventJournal::emit on that thread passes the recorded event (seq
/// assigned) to `sink` after the journal has released its lock. The events
/// still land in the journal. Taps nest; the innermost one receives. The
/// serve daemon streams a request's progress lines through one, since a
/// request computes on one thread -- the hook for request-scoped event
/// buffers.
class JournalTap {
 public:
  explicit JournalTap(std::function<void(const JournalEvent&)> sink);
  ~JournalTap();
  JournalTap(const JournalTap&) = delete;
  JournalTap& operator=(const JournalTap&) = delete;

 private:
  friend class EventJournal;
  std::function<void(const JournalEvent&)> sink_;
  JournalTap* outer_;  ///< the tap this one shadows, restored on exit
};

}  // namespace fbt::obs
