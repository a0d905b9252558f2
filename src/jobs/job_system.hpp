// FIFO job pool: the single execution substrate of the repo.
//
// The pool runs only parallel_for helpers. The one parallel loop in the
// repo is the fault grader's PPSFP walkers (fault/fault_sim.cpp); a whole
// flow or serve request always runs on its caller's thread, and the serve
// daemon bounds how many compute at once with its own semaphore.
//
// Shape:
//  * one mutex-guarded FIFO queue served by N worker threads; a helper runs
//    on whichever worker pops it first;
//  * parallel_for needs no waiting on tasks: the caller and up to N-1 helper
//    closures claim indices from one shared atomic cursor, and the caller
//    returns once every index it or a helper claimed has finished. A helper
//    still queued behind other work never delays the caller, and a helper
//    that starts late finds the cursor exhausted and does nothing -- so
//    parallel_for nests safely, on a worker of the same pool too;
//  * exception propagation: every index runs, then parallel_for rethrows
//    the first (by index) exception on the caller's thread;
//  * determinism: the scheduler never influences results -- the grader
//    partitions work by index and merges by index, so any interleaving
//    produces bit-identical output (pinned by
//    tests/bist/attribution_identity_test.cpp and
//    tests/serve/server_test.cpp).
//
// Observability: jobs.submitted / jobs.executed counters (one per helper)
// plus, when FBT_OBS is on, per-worker busy time, a queue-depth gauge and a
// run-time histogram. Spans a helper opens are roots on that worker's
// trace track. The always-on counters are plain relaxed atomics;
// everything involving a clock read compiles away under FBT_OBS=OFF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifndef FBT_OBS_ENABLED
#define FBT_OBS_ENABLED 1
#endif

namespace fbt::jobs {

/// Point-in-time scheduler telemetry (see JobSystem::scheduler_snapshot).
/// Counters are lifetime totals for this pool; busy/utilization cover the
/// span from construction to the snapshot. Under FBT_OBS=OFF the busy-time
/// instrumentation compiles away, so busy_ms and utilization read 0.
struct SchedulerSnapshot {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;  ///< helpers queued, not yet started
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  /// Always 0: the FIFO pool does not steal. Kept only because the fbtbench
  /// serve_sweep harness reads it.
  std::uint64_t steals = 0;
  double busy_ms = 0.0;     ///< summed across workers
  double elapsed_ms = 0.0;  ///< wall time since pool construction
  double utilization = 0.0;  ///< busy / (workers * elapsed), in [0, 1]
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

  /// Executes task(i) for every i in [0, num_tasks) on the calling thread
  /// and up to size()-1 helpers, which claim indices from one shared
  /// cursor. Returns once every index finished and rethrows the first (by
  /// index) exception. Safe from any thread, a worker of this pool
  /// included. Runs inline when the pool has one worker or num_tasks <= 1,
  /// preserving the serial reference path exactly.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

  /// Current scheduler telemetry for this pool. Cheap and safe to call
  /// concurrently with running work -- the serve daemon calls it per `stats`
  /// request, the run report once at exit.
  SchedulerSnapshot scheduler_snapshot() const;

 private:
  /// Appends one parallel_for helper to the queue.
  void enqueue(std::function<void()> helper);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::deque<std::function<void()>> queue_;  ///< guarded
  bool stop_ = false;                        ///< guarded

  // Telemetry (scheduler_snapshot). The lifetime counters are always-on
  // relaxed atomics; busy-time accounting needs a clock read per helper and
  // is compiled away under FBT_OBS=OFF.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::chrono::steady_clock::time_point start_;
#if FBT_OBS_ENABLED
  /// Per-worker microseconds spent running helpers.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
#endif
};

/// The process-wide pool (hardware_concurrency workers, created on first
/// use). Batch entry points default to it; servers may size their own.
JobSystem& global_jobs();

}  // namespace fbt::jobs
