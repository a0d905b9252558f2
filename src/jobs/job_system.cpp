#include "jobs/job_system.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "obs/instrument.hpp"

namespace fbt::jobs {

namespace {

/// Shared state of one parallel_for call. Helpers hold it by shared_ptr, so
/// a helper that starts after the call returned still finds valid memory;
/// it finds the cursor exhausted and never touches `task`.
struct ForState {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t num_tasks = 0;
  std::atomic<std::size_t> next{0};  ///< claim cursor
  std::mutex mutex;
  std::condition_variable cv;
  // Guarded by mutex: indices run to completion, and the first failure by
  // index.
  std::size_t finished = 0;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

/// Claims and runs indices until the cursor is exhausted; the thread that
/// finishes the last index wakes the caller.
void run_claimed(ForState& st) {
  std::size_t ran = 0;
  for (std::size_t i = st.next++; i < st.num_tasks; i = st.next++) {
    try {
      (*st.task)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st.mutex);
      if (i < st.error_index) {
        st.error_index = i;
        st.error = std::current_exception();
      }
    }
    ++ran;
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lock(st.mutex);
  st.finished += ran;
  if (st.finished == st.num_tasks) st.cv.notify_all();
}

}  // namespace

std::size_t JobSystem::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

JobSystem::JobSystem(std::size_t num_threads) {
  const std::size_t n = resolve_threads(num_threads);
  start_ = std::chrono::steady_clock::now();
#if FBT_OBS_ENABLED
  busy_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) busy_us_[i] = 0;
#endif
  FBT_OBS_GAUGE_SET("jobs.workers", n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobSystem::~JobSystem() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void JobSystem::enqueue(std::function<void()> helper) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  FBT_OBS_COUNTER_ADD("jobs.submitted", 1);
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(helper));
    depth = queue_.size();
  }
  FBT_OBS_GAUGE_SET("jobs.queue_depth", depth);
  ready_cv_.notify_one();
}

void JobSystem::worker_loop(std::size_t index) {
  while (true) {
    std::function<void()> helper;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and every helper has run
      helper = std::move(queue_.front());
      queue_.pop_front();
    }
#if FBT_OBS_ENABLED
    const auto run_t0 = std::chrono::steady_clock::now();
#endif
    helper();  // run_claimed catches every index's exception into ForState
#if FBT_OBS_ENABLED
    const double run_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - run_t0)
                              .count();
    FBT_OBS_HIST_RECORD_LOG("jobs.run_ms", run_us / 1000.0);
    FBT_OBS_COUNTER_ADD("jobs.busy_us", static_cast<std::uint64_t>(run_us));
    busy_us_[index].fetch_add(static_cast<std::uint64_t>(run_us),
                              std::memory_order_relaxed);
#else
    (void)index;
#endif
    executed_.fetch_add(1, std::memory_order_relaxed);
    FBT_OBS_COUNTER_ADD("jobs.executed", 1);
  }
}

void JobSystem::parallel_for(std::size_t num_tasks,
                             const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (num_tasks == 1 || size() == 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  auto st = std::make_shared<ForState>();
  st->task = &task;
  st->num_tasks = num_tasks;
  const std::size_t helpers = std::min(size(), num_tasks) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([st] { run_claimed(*st); });
  }
  run_claimed(*st);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(st->mutex);
    st->cv.wait(lock, [&st, num_tasks] { return st->finished == num_tasks; });
    // Take the exception out, so its last reference drops on this thread
    // even when a late helper holds `st` longest. The exception's refcount
    // lives in the uninstrumented C++ runtime, so ThreadSanitizer could not
    // order a release on the helper's thread after the caller's handler.
    error = std::move(st->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

SchedulerSnapshot JobSystem::scheduler_snapshot() const {
  SchedulerSnapshot snap;
  snap.workers = workers_.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.queue_depth = queue_.size();
  }
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.executed = executed_.load(std::memory_order_relaxed);
  snap.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
#if FBT_OBS_ENABLED
  std::uint64_t busy_us = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    busy_us += busy_us_[i].load(std::memory_order_relaxed);
  }
  snap.busy_ms = static_cast<double>(busy_us) / 1000.0;
  const double capacity_ms =
      snap.elapsed_ms * static_cast<double>(snap.workers);
  if (capacity_ms > 0.0) {
    snap.utilization = std::min(1.0, snap.busy_ms / capacity_ms);
  }
#endif
  return snap;
}

JobSystem& global_jobs() {
  static JobSystem system(0);
  return system;
}

}  // namespace fbt::jobs
