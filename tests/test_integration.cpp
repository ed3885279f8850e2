// Cross-module integration tests: multi-stage pipelines, executor +
// TransferQueue composition, end-to-end shutdown, and a randomized soak of
// the whole public surface.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/linked_transfer_queue.hpp"
#include "core/synchronous_queue.hpp"
#include "executor/thread_pool_executor.hpp"
#include "support/rng.hpp"

using namespace ssq;

TEST(Integration, ThreeStagePipelineDrainsInOrder) {
  // tokenizer -> mapper -> reducer over fair queues: per-stage FIFO
  // composition must preserve global order.
  fair_synchronous_queue<int> s1, s2;
  std::vector<int> out;
  const int n = 500;

  std::thread stage1([&] {
    for (int i = 0; i < n; ++i) s1.put(i);
    s1.put(-1);
  });
  std::thread stage2([&] {
    for (;;) {
      int v = s1.take();
      s2.put(v < 0 ? v : v * 2);
      if (v < 0) return;
    }
  });
  std::thread stage3([&] {
    for (;;) {
      int v = s2.take();
      if (v < 0) return;
      out.push_back(v);
    }
  });
  stage1.join();
  stage2.join();
  stage3.join();

  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 2 * i);
  EXPECT_TRUE(s1.is_empty());
  EXPECT_TRUE(s2.is_empty());
}

TEST(Integration, BackpressureLimitsInFlightItems) {
  // With synchronous coupling, a stalled sink must stall the source after
  // at most one in-flight item per stage.
  unfair_synchronous_queue<int> q;
  std::atomic<int> produced{0};
  std::atomic<bool> release{false};
  std::thread src([&] {
    for (int i = 0; i < 10; ++i) {
      q.put(i);
      produced.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 1) << "synchronous queue must not buffer";
  std::thread sink([&] {
    while (!release.load()) std::this_thread::yield();
    for (int i = 0; i < 10; ++i) (void)q.take();
  });
  release.store(true);
  src.join();
  sink.join();
  EXPECT_EQ(produced.load(), 10);
}

TEST(Integration, ExecutorOverLinkedTransferQueue) {
  // The LTQ accepts tasks without blocking submitters (buffered channel):
  // the pool degenerates gracefully to a single-worker queue drain when
  // max_pool_size is 1.
  thread_pool_executor<linked_transfer_queue<unique_task>> ex(
      {0, 1, std::chrono::milliseconds(200)});
  std::atomic<int> order_errors{0}, last{-1}, done{0};
  const int n = 200;
  for (int i = 0; i < n; ++i)
    ex.submit([&, i] {
      if (last.exchange(i) != i - 1) order_errors.fetch_add(1);
      done.fetch_add(1);
    });
  while (done.load() < n) std::this_thread::yield();
  EXPECT_EQ(order_errors.load(), 0)
      << "single worker over FIFO channel must preserve submit order";
  EXPECT_LE(ex.largest_pool_size(), 1u);
}

TEST(Integration, GracefulShutdownUnderLoad) {
  auto t0 = steady_clock::now();
  std::atomic<int> done{0};
  {
    thread_pool_executor<synchronous_queue<unique_task, false>> ex(
        {0, 32, std::chrono::seconds(30)});
    for (int i = 0; i < 100; ++i)
      ex.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        done.fetch_add(1);
      });
    while (done.load() < 100) std::this_thread::yield();
    ex.shutdown();
    ex.join();
    EXPECT_EQ(ex.pool_size(), 0u);
  }
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(60));
  EXPECT_EQ(done.load(), 100);
}

TEST(Integration, RandomizedSoakAllOperations) {
  // Randomized mix of every public operation on both queue flavors;
  // validates conservation under arbitrary interleavings of sync, timed,
  // and non-blocking paths.
  synchronous_queue<std::uint64_t, true> fair;
  synchronous_queue<std::uint64_t, false> unfair;
  std::atomic<std::uint64_t> in{0}, out{0};
  std::atomic<int> consumed{0};
  const int total_target = 4000;
  std::atomic<std::uint64_t> seq{1};
  std::atomic<bool> producers_done{false};

  auto producer = [&](std::uint64_t seed) {
    xoshiro256 rng(seed);
    for (int i = 0; i < total_target / 4; ++i) {
      std::uint64_t v = seq.fetch_add(1);
      bool use_fair = rng.chance(1, 2);
      for (;;) {
        bool sent;
        switch (rng.below(3)) {
          case 0:
            if (use_fair)
              fair.put(v);
            else
              unfair.put(v);
            sent = true;
            break;
          case 1:
            sent = use_fair
                       ? fair.try_put(v, std::chrono::milliseconds(1))
                       : unfair.try_put(v, std::chrono::milliseconds(1));
            break;
          default:
            sent = use_fair ? fair.offer(v) : unfair.offer(v);
            break;
        }
        if (sent) break;
      }
      in.fetch_add(v);
    }
  };
  auto consumer = [&](std::uint64_t seed) {
    xoshiro256 rng(seed);
    while (consumed.load() < total_target) {
      bool use_fair = rng.chance(1, 2);
      std::optional<std::uint64_t> v;
      switch (rng.below(2)) {
        case 0:
          v = use_fair ? fair.try_take(std::chrono::milliseconds(1))
                       : unfair.try_take(std::chrono::milliseconds(1));
          break;
        default:
          v = use_fair ? fair.poll() : unfair.poll();
          break;
      }
      if (v) {
        out.fetch_add(*v);
        consumed.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) ts.emplace_back(producer, 1000 + i);
  for (int i = 0; i < 4; ++i) ts.emplace_back(consumer, 2000 + i);
  for (auto &t : ts) t.join();
  producers_done.store(true);
  EXPECT_EQ(in.load(), out.load());
  EXPECT_EQ(consumed.load(), total_target);
}

TEST(Integration, ManyQueuesShareTheGlobalHazardDomain) {
  // Dozens of short-lived queues sharing the global domain must not
  // interfere (retired nodes of one must not pin another's reclamation).
  for (int round = 0; round < 30; ++round) {
    synchronous_queue<int, false> q;
    std::thread p([&] {
      for (int i = 0; i < 50; ++i) q.put(i);
    });
    for (int i = 0; i < 50; ++i) (void)q.take();
    p.join();
  }
  mem::hazard_domain::global().drain();
  EXPECT_LT(mem::hazard_domain::global().approx_retired(), 1000u);
}
