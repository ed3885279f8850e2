// Tests for the ThreadPoolExecutor analogue over several handoff channels.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baselines/java5_sq.hpp"
#include "core/synchronous_queue.hpp"
#include "executor/thread_pool_executor.hpp"

using namespace ssq;

using new_unfair_q = synchronous_queue<unique_task, false>;
using new_fair_q = synchronous_queue<unique_task, true>;
using j5_fair_q = java5_sq<unique_task, true>;
using j5_unfair_q = java5_sq<unique_task, false>;

// ------------------------------------------------------------ unique_task

TEST(UniqueTask, RunsCapturedCallable) {
  int x = 0;
  unique_task t([&] { x = 7; });
  ASSERT_TRUE(static_cast<bool>(t));
  t();
  EXPECT_EQ(x, 7);
}

TEST(UniqueTask, MoveOnlyCapture) {
  auto p = std::make_unique<int>(3);
  unique_task t([q = std::move(p)] { EXPECT_EQ(*q, 3); });
  t();
}

TEST(UniqueTask, DefaultIsEmpty) {
  unique_task t;
  EXPECT_FALSE(static_cast<bool>(t));
}

TEST(UniqueTask, MoveTransfersOwnership) {
  int x = 0;
  unique_task a([&] { ++x; });
  unique_task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(x, 1);
}

// ------------------------------------------------------------- executor

template <typename Q>
class ExecutorOverChannels : public ::testing::Test {};

using Channels =
    ::testing::Types<new_unfair_q, new_fair_q, j5_fair_q, j5_unfair_q>;
TYPED_TEST_SUITE(ExecutorOverChannels, Channels);

TYPED_TEST(ExecutorOverChannels, RunsAllTasks) {
  thread_pool_executor<TypeParam> ex(
      {0, 128, std::chrono::milliseconds(200)});
  std::atomic<int> done{0};
  const int n = 400;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(ex.submit([&] { done++; }));
  while (done.load() < n) std::this_thread::yield();
  ex.shutdown();
  ex.join();
  EXPECT_EQ(ex.completed_count(), static_cast<std::uint64_t>(n));
}

TYPED_TEST(ExecutorOverChannels, ReusesIdleWorkers) {
  thread_pool_executor<TypeParam> ex({0, 256, std::chrono::seconds(10)});
  std::atomic<int> done{0};
  const int n = 300;
  // Sequential short tasks: with a generous keep-alive the pool must not
  // spawn a worker per task.
  for (int i = 0; i < n; ++i) {
    ex.submit([&] { done++; });
    while (done.load() <= i) std::this_thread::yield();
  }
  EXPECT_LT(ex.spawned_count(), static_cast<std::uint64_t>(n / 2))
      << "idle workers must be reused via the handoff channel";
}

TYPED_TEST(ExecutorOverChannels, KeepAliveShrinksPool) {
  thread_pool_executor<TypeParam> ex({0, 64, std::chrono::milliseconds(40)});
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i)
    ex.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done++;
    });
  while (done.load() < 16) std::this_thread::yield();
  // All workers idle now; keep-alive must retire them.
  auto dl = deadline::in(std::chrono::seconds(30));
  while (ex.pool_size() != 0 && !dl.expired_now())
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ex.pool_size(), 0u);
}

TYPED_TEST(ExecutorOverChannels, ShutdownRejectsNewWork) {
  thread_pool_executor<TypeParam> ex({0, 16, std::chrono::seconds(5)});
  std::atomic<int> done{0};
  ex.submit([&] { done++; });
  while (done.load() < 1) std::this_thread::yield();
  ex.shutdown();
  EXPECT_FALSE(ex.submit([&] { done++; }));
  ex.join();
  EXPECT_EQ(done.load(), 1);
  EXPECT_EQ(ex.pool_size(), 0u);
}

TYPED_TEST(ExecutorOverChannels, ShutdownWakesIdleWorkers) {
  auto t0 = steady_clock::now();
  {
    thread_pool_executor<TypeParam> ex({0, 8, std::chrono::hours(1)});
    std::atomic<int> done{0};
    for (int i = 0; i < 4; ++i) ex.submit([&] { done++; });
    while (done.load() < 4) std::this_thread::yield();
    // Destructor performs shutdown + join; workers hold a 1h keep-alive and
    // must be interrupted out of it.
  }
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(30))
      << "idle workers were not interrupted on shutdown";
}

TYPED_TEST(ExecutorOverChannels, ThrowingTaskDoesNotKillPool) {
  thread_pool_executor<TypeParam> ex({0, 16, std::chrono::seconds(5)});
  std::atomic<int> done{0};
  ex.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 50; ++i) ex.submit([&] { done++; });
  while (done.load() < 50) std::this_thread::yield();
  // The counts are bumped after each task body returns (or unwinds), so
  // they are final only once every worker has exited.
  ex.shutdown();
  ex.join();
  EXPECT_EQ(ex.task_exception_count(), 1u);
  EXPECT_EQ(ex.completed_count(), 50u);
}

TEST(Executor, MaxPoolSizeIsRespected) {
  // At the cap, execute() blocks until a worker frees (synchronous channel,
  // no buffering), so submissions must come from their own threads.
  thread_pool_executor<new_unfair_q> ex({0, 3, std::chrono::seconds(10)});
  std::atomic<int> running{0}, peak{0}, release{0}, done{0};
  const int n = 9;
  std::vector<std::thread> submitters;
  for (int i = 0; i < n; ++i)
    submitters.emplace_back([&] {
      ex.submit([&] {
        int r = running.fetch_add(1) + 1;
        int p = peak.load();
        while (r > p && !peak.compare_exchange_weak(p, r)) {
        }
        while (!release.load()) std::this_thread::yield();
        running.fetch_sub(1);
        done++;
      });
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(ex.largest_pool_size(), 3u);
  release.store(1);
  for (auto &t : submitters) t.join();
  while (done.load() < n) std::this_thread::yield();
  EXPECT_LE(peak.load(), 3);
}

TEST(Executor, CoreWorkersSurviveKeepAlive) {
  thread_pool_executor<new_unfair_q> ex({2, 8, std::chrono::milliseconds(30)});
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) ex.submit([&] { done++; });
  while (done.load() < 8) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_LE(ex.pool_size(), 2u) << "extra workers retire";
  EXPECT_GE(ex.pool_size(), 1u) << "core workers persist";
  // Core workers still serve new work.
  std::atomic<int> more{0};
  ex.submit([&] { more++; });
  while (more.load() < 1) std::this_thread::yield();
}

TEST(Executor, ParallelSubmittersStress) {
  thread_pool_executor<new_fair_q> ex({0, 64, std::chrono::milliseconds(300)});
  std::atomic<int> done{0};
  const int nsub = 4, per = 500;
  std::vector<std::thread> subs;
  for (int s = 0; s < nsub; ++s)
    subs.emplace_back([&] {
      for (int i = 0; i < per; ++i) ex.submit([&] { done++; });
    });
  for (auto &t : subs) t.join();
  while (done.load() < nsub * per) std::this_thread::yield();
  ex.shutdown();
  ex.join();
  EXPECT_EQ(ex.completed_count(), static_cast<std::uint64_t>(nsub * per));
}
