#include "jobs/job_system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "util/require.hpp"

namespace fbt::jobs {
namespace {

// The CI container may report a single core, which would collapse every
// parallel path to the inline one -- tests that exercise scheduling size the
// pool explicitly.
constexpr std::size_t kPool = 4;

TEST(JobSystem, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(JobSystem::resolve_threads(0), 1u);
  EXPECT_EQ(JobSystem::resolve_threads(3), 3u);
  EXPECT_EQ(JobSystem::resolve_threads(1), 1u);
}

TEST(JobSystem, SubmitRunsAndWaitBlocks) {
  JobSystem jobs(kPool);
  std::atomic<int> ran{0};
  const TaskHandle h = jobs.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(h.valid());
  jobs.wait(h);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(h.done());
}

TEST(JobSystem, InvalidHandleWaitIsNoop) {
  JobSystem jobs(kPool);
  TaskHandle inert;
  EXPECT_FALSE(inert.valid());
  jobs.wait(inert);  // must not hang or throw
}

TEST(JobSystem, ParallelForCoversEveryIndexExactlyOnce) {
  JobSystem jobs(kPool);
  constexpr std::size_t kN = 997;  // odd, not a multiple of the pool size
  std::vector<std::atomic<int>> hits(kN);
  jobs.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(JobSystem, SingleWorkerParallelForRunsInline) {
  JobSystem jobs(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  jobs.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(JobSystem, ExceptionRethrownOnWait) {
  JobSystem jobs(kPool);
  const TaskHandle h =
      jobs.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(jobs.wait(h), std::runtime_error);
  // A second wait on the same handle rethrows again (the state is sticky).
  EXPECT_THROW(jobs.wait(h), std::runtime_error);
}

TEST(JobSystem, ParallelForRethrowsFirstByIndex) {
  JobSystem jobs(kPool);
  try {
    jobs.parallel_for(64, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("seven");
      if (i == 31) throw std::logic_error("thirty-one");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
}

TEST(JobSystem, NestedParallelForDoesNotDeadlock) {
  JobSystem jobs(kPool);
  // More outer indices than workers, each nesting an inner parallel_for on
  // whichever thread runs it: the inner caller claims its own indices, so
  // it never waits for a helper that is queued behind an outer index.
  std::atomic<int> inner_total{0};
  jobs.parallel_for(kPool * 3, [&](std::size_t) {
    jobs.parallel_for(16, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), static_cast<int>(kPool * 3 * 16));
}

TEST(JobSystem, ParallelForReturnsWhileItsHelpersWaitBehindABlockedTask) {
  // Every worker is parked, so the helper parallel_for queues cannot start:
  // the caller claims and runs every index itself and returns without
  // waiting for the helper.
  JobSystem jobs(2);
  std::latch parked(2);
  std::latch release(1);
  std::vector<TaskHandle> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(jobs.submit([&] {
      parked.count_down();
      release.wait();
    }));
  }
  parked.wait();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  jobs.parallel_for(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_EQ(jobs.scheduler_snapshot().queue_depth, 1u);  // the idle helper
  release.count_down();
  for (const TaskHandle& h : blockers) jobs.wait(h);
}

TEST(JobSystem, WaitOnAWorkerOfTheSamePoolThrows) {
  // wait() never runs other tasks, so blocking a worker on its own pool
  // could deadlock; it refuses instead.
  JobSystem jobs(2);
  const TaskHandle first = jobs.submit([] {});
  const TaskHandle nested = jobs.submit([&] { jobs.wait(first); });
  EXPECT_THROW(jobs.wait(nested), Error);
  jobs.wait(first);
}

TEST(JobSystem, ExternalSubmitsToOneWorkerRunInFifoOrder) {
  JobSystem jobs(1);
  constexpr int kTasks = 100;
  std::vector<int> order;  // written by the single worker only
  std::vector<TaskHandle> handles;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(jobs.submit([&order, i] { order.push_back(i); }));
  }
  for (const TaskHandle& h : handles) jobs.wait(h);
  std::vector<int> expected(kTasks);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(JobSystem, StressManySmallTasks) {
  JobSystem jobs(kPool);
  constexpr int kTasks = 5000;
  std::atomic<long> total{0};
  std::vector<TaskHandle> handles;
  handles.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(jobs.submit([&total, i] { total.fetch_add(i); }));
  }
  for (const TaskHandle& h : handles) jobs.wait(h);
  EXPECT_EQ(total.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

#if FBT_OBS_ENABLED
TEST(JobSystem, CountersTrackSubmissionAndExecution) {
  obs::registry().reset();
  {
    JobSystem jobs(kPool);
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 100; ++i) handles.push_back(jobs.submit([] {}));
    for (const TaskHandle& h : handles) jobs.wait(h);
  }
  const std::uint64_t submitted =
      obs::registry().counter("jobs.submitted").value();
  const std::uint64_t executed =
      obs::registry().counter("jobs.executed").value();
  EXPECT_GE(submitted, 100u);
  EXPECT_EQ(executed, submitted);
}
#endif

TEST(JobSystem, SchedulerSnapshotTracksLifetimeTotals) {
  JobSystem jobs(kPool);
  const SchedulerSnapshot before = jobs.scheduler_snapshot();
  EXPECT_EQ(before.workers, kPool);
  EXPECT_EQ(before.submitted, 0u);
  EXPECT_EQ(before.executed, 0u);

  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(jobs.submit([&ran] { ran.fetch_add(1); }));
  }
  for (const TaskHandle& h : handles) jobs.wait(h);

  const SchedulerSnapshot after = jobs.scheduler_snapshot();
  EXPECT_EQ(after.workers, kPool);
  EXPECT_EQ(after.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(after.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_GT(after.elapsed_ms, 0.0);
  // Utilization is bounded even when busy-time accounting is compiled out
  // (it reads 0 under FBT_OBS=OFF).
  EXPECT_GE(after.utilization, 0.0);
  EXPECT_LE(after.utilization, 1.0);
#if FBT_OBS_ENABLED
  EXPECT_GE(after.busy_ms, 0.0);
#else
  EXPECT_EQ(after.busy_ms, 0.0);
#endif
}

}  // namespace
}  // namespace fbt::jobs
