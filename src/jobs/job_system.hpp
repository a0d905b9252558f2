// FIFO job pool: the single execution substrate of the repo.
//
// Many circuits and many experiments multiplex one set of worker threads
// (the serving story: every request runs as one task of a shared pool).
//
// Shape:
//  * one mutex-guarded FIFO queue served by N worker threads; a task runs
//    on whichever worker pops it first;
//  * exception propagation: wait() rethrows the task's exception on the
//    waiting thread;
//  * no nested waits: wait() blocks on a condition variable and never runs
//    other tasks, so it throws fbt::Error on a worker of the same pool
//    (blocking there could deadlock a pool whose workers all wait);
//  * parallel_for needs no waiting on tasks: the caller and up to N-1 helper
//    tasks claim indices from one shared atomic cursor, and the caller
//    returns once every index it or a helper claimed has finished. A helper
//    still queued behind a long task never delays the caller, and a helper
//    that starts late finds the cursor exhausted and does nothing -- so
//    parallel_for nests safely inside a task of the same pool;
//  * determinism: the scheduler never influences results -- parallel users
//    (fault-grading walkers, serve requests) partition work by index and
//    merge by index, so any interleaving produces bit-identical output
//    (pinned by tests/bist/attribution_identity_test.cpp and
//    tests/serve/server_test.cpp).
//
// Observability: jobs.submitted / jobs.executed counters plus, when FBT_OBS
// is on, cross-worker trace propagation (submit captures the submitter's
// obs::TraceContext and re-enters it on the executing worker, with a Chrome
// flow arrow from submit site to run site), per-worker busy time, a
// queue-depth gauge and a run-time histogram. The always-on counters are
// plain relaxed atomics; everything involving a clock read compiles away
// under FBT_OBS=OFF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifndef FBT_OBS_ENABLED
#define FBT_OBS_ENABLED 1
#endif

#if FBT_OBS_ENABLED
#include "obs/phase.hpp"
#endif

namespace fbt::jobs {

namespace detail {

/// Shared completion state of one task, owned jointly by the queue and the
/// handle.
struct TaskState {
  std::function<void()> fn;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;         ///< guarded by mutex
  std::exception_ptr error;  ///< set before done, guarded by mutex
#if FBT_OBS_ENABLED
  /// Submitter's trace position, captured at submit time and re-entered
  /// (obs::TraceContextScope) around fn() on the executing worker -- written
  /// before the task is queued, read-only afterwards.
  obs::TraceContext trace{};
  std::uint64_t flow_id = 0;    ///< Chrome flow-arrow id (submit -> run)
  std::uint64_t submit_us = 0;  ///< trace-epoch time of the submit site
  std::uint32_t submit_tid = 0;  ///< trace tid of the submitting thread
#endif
};

}  // namespace detail

/// Point-in-time scheduler telemetry (see JobSystem::scheduler_snapshot).
/// Counters are lifetime totals for this pool; busy/utilization cover the
/// span from construction to the snapshot. Under FBT_OBS=OFF the busy-time
/// instrumentation compiles away, so busy_ms and utilization read 0.
struct SchedulerSnapshot {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;  ///< tasks queued, not yet started
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  /// Always 0: the FIFO pool does not steal. Kept only because the fbtbench
  /// serve_sweep harness reads it.
  std::uint64_t steals = 0;
  double busy_ms = 0.0;     ///< summed across workers
  double elapsed_ms = 0.0;  ///< wall time since pool construction
  double utilization = 0.0;  ///< busy / (workers * elapsed), in [0, 1]
};

/// Opaque reference to a submitted task. Default-constructed handles are
/// inert (valid() == false); wait() on them returns immediately.
class TaskHandle {
 public:
  TaskHandle() = default;
  bool valid() const { return state_ != nullptr; }
  /// True once the task finished (normally or with an exception).
  bool done() const;

 private:
  friend class JobSystem;
  explicit TaskHandle(std::shared_ptr<detail::TaskState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::TaskState> state_;
};

class JobSystem {
 public:
  /// `num_threads` = 0 selects std::thread::hardware_concurrency().
  explicit JobSystem(std::size_t num_threads = 0);
  ~JobSystem();
  JobSystem(const JobSystem&) = delete;
  JobSystem& operator=(const JobSystem&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const { return workers_.size(); }

  /// Maps the num_threads knob to an actual count: 0 becomes
  /// hardware_concurrency() (or 1 when that is unknown). Shared by every
  /// `num_threads` knob in the repo (grading walkers, server pools).
  static std::size_t resolve_threads(std::size_t requested);

  /// Appends `fn` to the queue. The handle outlives the system only as an
  /// inert token; wait on it before destroying the JobSystem.
  TaskHandle submit(std::function<void()> fn);

  /// Blocks until `handle` finished and rethrows the task's exception. No-op
  /// for invalid handles. Throws fbt::Error when called on a worker of this
  /// pool: it never runs other tasks while blocked, so a nested wait could
  /// deadlock.
  void wait(const TaskHandle& handle);

  /// Executes task(i) for every i in [0, num_tasks) on the calling thread
  /// and up to size()-1 helper tasks, which claim indices from one shared
  /// cursor. Returns once every index finished and rethrows the first (by
  /// index) exception. Safe from inside a task of this pool. Runs inline
  /// when the pool has one worker or num_tasks <= 1, preserving the serial
  /// reference path exactly.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

  /// Current scheduler telemetry for this pool. Cheap and safe to call
  /// concurrently with running work -- the serve daemon calls it per `stats`
  /// request, the run report once at exit.
  SchedulerSnapshot scheduler_snapshot() const;

 private:
  void worker_loop(std::size_t index);
  void execute(detail::TaskState& state, std::size_t worker);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::deque<std::shared_ptr<detail::TaskState>> queue_;  ///< guarded
  bool stop_ = false;                                     ///< guarded

  // Telemetry (scheduler_snapshot). The lifetime counters are always-on
  // relaxed atomics; busy-time accounting needs a clock read per task and is
  // compiled away under FBT_OBS=OFF.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::chrono::steady_clock::time_point start_;
#if FBT_OBS_ENABLED
  /// Per-worker microseconds spent in fn().
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
#endif
};

/// The process-wide pool (hardware_concurrency workers, created on first
/// use). Batch entry points default to it; servers may size their own.
JobSystem& global_jobs();

}  // namespace fbt::jobs
