#include "jobs/job_system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/instrument.hpp"
#include "obs/metrics.hpp"

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
  EXPECT_EQ(jobs.scheduler_snapshot().submitted, 0u);
}

TEST(JobSystem, ParallelForRunsEveryIndexThenRethrowsFirstByIndex) {
  JobSystem jobs(kPool);
  std::atomic<int> ran{0};
  try {
    jobs.parallel_for(64, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("seven");
      if (i == 31) throw std::logic_error("thirty-one");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
  EXPECT_EQ(ran.load(), 64);
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

TEST(JobSystem, ParallelForReturnsWhileItsHelpersWaitBehindABusyWorker) {
  // Two blocking callers park both workers: each caller and its one helper
  // claim one index apiece and wait on `release`. The helper a third
  // parallel_for queues then cannot start, so that caller claims and runs
  // every index itself and returns without waiting for it.
  JobSystem jobs(2);
  std::latch parked(4);
  std::latch release(1);
  const auto park = [&](std::size_t) {
    parked.count_down();
    release.wait();
  };
  std::vector<std::thread> blockers;
  for (int b = 0; b < 2; ++b) {
    blockers.emplace_back([&] { jobs.parallel_for(2, park); });
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
  for (std::thread& t : blockers) t.join();
}

TEST(JobSystem, ConcurrentCallersShareOnePool) {
  // Several threads call parallel_for on one pool at once, the way
  // concurrent serve requests grade faults; every index of every call runs
  // exactly once.
  JobSystem jobs(kPool);
  constexpr int kCallers = 4;
  constexpr int kCalls = 200;
  constexpr std::size_t kN = 8;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int k = 0; k < kCalls; ++k) {
        jobs.parallel_for(kN, [&total](std::size_t i) {
          total.fetch_add(static_cast<long>(i) + 1);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(),
            static_cast<long>(kCallers) * kCalls * (kN * (kN + 1) / 2));
}

TEST(JobSystem, SchedulerSnapshotCountsOneSubmitPerHelper) {
  JobSystem jobs(kPool);
  const SchedulerSnapshot before = jobs.scheduler_snapshot();
  EXPECT_EQ(before.workers, kPool);
  EXPECT_EQ(before.submitted, 0u);
  EXPECT_EQ(before.executed, 0u);

  // Inline calls queue nothing; each wider call queues size() - 1 helpers
  // before it returns (fewer when there are fewer indices than workers).
  jobs.parallel_for(1, [](std::size_t) {});
  EXPECT_EQ(jobs.scheduler_snapshot().submitted, 0u);
  constexpr int kCalls = 50;
  for (int c = 0; c < kCalls; ++c) jobs.parallel_for(64, [](std::size_t) {});
  jobs.parallel_for(2, [](std::size_t) {});
  const std::uint64_t expected = kCalls * (kPool - 1) + 1;
  EXPECT_EQ(jobs.scheduler_snapshot().submitted, expected);

  // Helpers may still be queued or running after their caller returned;
  // every one of them runs.
  SchedulerSnapshot after = jobs.scheduler_snapshot();
  while (after.executed < after.submitted) {
    std::this_thread::yield();
    after = jobs.scheduler_snapshot();
  }
  EXPECT_EQ(after.executed, expected);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.steals, 0u);
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

#if FBT_OBS_ENABLED
TEST(JobSystem, CountersTrackSubmissionAndExecution) {
  obs::registry().reset();
  constexpr int kCalls = 100;
  {
    JobSystem jobs(kPool);
    for (int c = 0; c < kCalls; ++c) {
      jobs.parallel_for(kPool, [](std::size_t) {});
    }
  }  // the destructor runs every queued helper before joining
  EXPECT_EQ(obs::registry().counter("jobs.submitted").value(),
            static_cast<std::uint64_t>(kCalls * (kPool - 1)));
  EXPECT_EQ(obs::registry().counter("jobs.executed").value(),
            static_cast<std::uint64_t>(kCalls * (kPool - 1)));
}
#endif

}  // namespace
}  // namespace fbt::jobs
