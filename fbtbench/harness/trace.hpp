// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's side: name, start, end, parent span and operation id. Spans are
// appended under a mutex (two client threads record concurrently in
// serve_sweep) and written out once, when the run ends. With tracing off,
// Span objects cost one branch and record nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fbtbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list; -1 = root
  std::int64_t op = -1;      ///< operation the span belongs to
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread, nested under the thread's open
  /// span. Returns its index, or -1 when tracing is off.
  std::int64_t open(const char* name, std::int64_t op) {
    if (!enabled_) return -1;
    const std::int64_t start = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, 0, current_, op});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }

  void close(std::int64_t id) {
    if (id < 0) return;
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = end;
    current_ = s.parent;
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<SpanRecord> spans_;
  // The open span of the calling thread. Threads trace disjoint operations,
  // so one slot per thread is kept in thread-local storage.
  static thread_local std::int64_t current_;
};

inline thread_local std::int64_t Tracer::current_ = -1;

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t op)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace fbtbench
