// Tests for the convenience pool configurations (executor/pools.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "executor/pools.hpp"

using namespace ssq;

TEST(CachedPool, GrowsAndShrinks) {
  cached_thread_pool pool(
      {0, std::size_t{1} << 20, std::chrono::milliseconds(60)});
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      done++;
    });
  while (done.load() < 32) std::this_thread::yield();
  EXPECT_GE(pool.largest_pool_size(), 1u);
  auto dl = deadline::in(std::chrono::seconds(30));
  while (pool.pool_size() != 0 && !dl.expired_now())
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(pool.pool_size(), 0u) << "cached pool must drain to zero";
}

TEST(CachedPool, DefaultConfigHasNoCoreThreads) {
  auto cfg = cached_pool_config();
  EXPECT_EQ(cfg.core_pool_size, 0u);
  EXPECT_GE(cfg.max_pool_size, std::size_t{1} << 20);
}

TEST(FixedPool, NeverExceedsConfiguredSize) {
  fixed_thread_pool pool(fixed_pool_config(2));
  std::atomic<int> running{0}, peak{0}, done{0};
  const int n = 24;
  for (int i = 0; i < n; ++i)
    pool.submit([&] {
      int r = running.fetch_add(1) + 1;
      int p = peak.load();
      while (r > p && !peak.compare_exchange_weak(p, r)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      running.fetch_sub(1);
      done++;
    });
  while (done.load() < n) std::this_thread::yield();
  EXPECT_LE(peak.load(), 2);
  EXPECT_LE(pool.largest_pool_size(), 2u);
}

TEST(FixedPool, BuffersBursts) {
  // Submissions never block (buffered channel) even with all workers busy.
  fixed_thread_pool pool(fixed_pool_config(1));
  std::atomic<int> done{0};
  std::atomic<bool> gate{false};
  pool.submit([&] {
    while (!gate.load()) std::this_thread::yield();
    done++;
  });
  auto t0 = steady_clock::now();
  for (int i = 0; i < 100; ++i) pool.submit([&] { done++; });
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(5))
      << "fixed-pool submit must not block";
  gate.store(true);
  while (done.load() < 101) std::this_thread::yield();
}

TEST(FairCachedPool, RunsWorkload) {
  fair_cached_thread_pool pool(cached_pool_config(std::chrono::milliseconds(200)));
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) pool.submit([&] { done++; });
  while (done.load() < 200) std::this_thread::yield();
  pool.shutdown();
  pool.join();
  EXPECT_EQ(pool.completed_count(), 200u);
}
