// Tests for the Listing 5/6 reference implementations, including
// cross-checks against the full-featured cores (same workload, same
// conservation result).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dual_queue_basic.hpp"
#include "core/dual_stack_basic.hpp"
#include "core/synchronous_queue.hpp"

using namespace ssq;

// ------------------------------------------------------------ queue basic

TEST(DualQueueBasic, PairHandoff) {
  dual_queue_basic<int> q;
  std::thread p([&] { q.enqueue(17); });
  EXPECT_EQ(q.dequeue(), 17);
  p.join();
}

TEST(DualQueueBasic, EnqueueBlocksUntilDequeue) {
  dual_queue_basic<int> q;
  std::atomic<bool> done{false};
  std::thread p([&] {
    q.enqueue(1);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(q.dequeue(), 1);
  p.join();
}

TEST(DualQueueBasic, ReservationPathPairHandoff) {
  dual_queue_basic<int> q;
  std::atomic<int> got{-1};
  std::thread c([&] { got.store(q.dequeue()); });
  while (q.is_empty()) std::this_thread::yield(); // reservation linked
  q.enqueue(23);
  c.join();
  EXPECT_EQ(got.load(), 23);
}

TEST(DualQueueBasic, FifoAmongWaitingProducers) {
  dual_queue_basic<int> q;
  std::thread p1([&] { q.enqueue(1); });
  while (q.is_empty()) std::this_thread::yield();
  std::thread p2([&] { q.enqueue(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.dequeue(), 1);
  EXPECT_EQ(q.dequeue(), 2);
  p1.join();
  p2.join();
}

TEST(DualQueueBasic, Conservation3x3) {
  dual_queue_basic<std::uint32_t> q;
  const int np = 3, nc = 3, per = 2000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        std::uint32_t v = static_cast<std::uint32_t>(p * per + i + 1);
        q.enqueue(v);
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(q.dequeue());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(q.is_empty());
}

// is_empty() reads the head dummy, which a dequeue retires once head_
// moves past it, so the read must hold a hazard on it. Under ASan a read
// of a dummy already recycled through the node pool reports
// use-after-poison.
TEST(DualQueueBasic, IsEmptyRacesDummyRetirement) {
  dual_queue_basic<int> q;
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load()) (void)q.is_empty();
  });
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  std::vector<std::thread> ts;
  std::atomic<long> in{0}, out{0};
  for (int pair = 0; pair < 2; ++pair) {
    ts.emplace_back([&] {
      for (int i = 1; i <= 400000; ++i) {
        if ((i & 1023) == 0 && std::chrono::steady_clock::now() > until) break;
        q.enqueue(i);
        in.fetch_add(i);
      }
      q.enqueue(-1); // one stop value per consumer
    });
    ts.emplace_back([&] {
      for (int v; (v = q.dequeue()) != -1;) out.fetch_add(v);
    });
  }
  for (auto &t : ts) t.join();
  stop.store(true);
  observer.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(q.is_empty());
}

TEST(DualQueueBasic, BoxedPayload) {
  dual_queue_basic<std::string> q;
  std::thread p([&] { q.enqueue("basic"); });
  EXPECT_EQ(q.dequeue(), "basic");
  p.join();
}

// ------------------------------------------------------------ stack basic

TEST(DualStackBasic, PairHandoff) {
  dual_stack_basic<int> s;
  std::thread p([&] { s.push(29); });
  EXPECT_EQ(s.pop(), 29);
  p.join();
}

TEST(DualStackBasic, PushBlocksUntilPop) {
  dual_stack_basic<int> s;
  std::atomic<bool> done{false};
  std::thread p([&] {
    s.push(1);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(s.pop(), 1);
  p.join();
}

TEST(DualStackBasic, FulfillingPathPairHandoff) {
  dual_stack_basic<int> s;
  std::atomic<int> got{-1};
  std::thread c([&] { got.store(s.pop()); });
  while (s.is_empty()) std::this_thread::yield(); // reservation pushed
  s.push(31);
  c.join();
  EXPECT_EQ(got.load(), 31);
}

TEST(DualStackBasic, Conservation3x3) {
  dual_stack_basic<std::uint32_t> s;
  const int np = 3, nc = 3, per = 2000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        std::uint32_t v = static_cast<std::uint32_t>(p * per + i + 1);
        s.push(v);
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(s.pop());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(s.is_empty());
}

TEST(DualStackBasic, BoxedPayload) {
  dual_stack_basic<std::string> s;
  std::thread p([&] { s.push("annihilate"); });
  EXPECT_EQ(s.pop(), "annihilate");
  p.join();
}

// ------------------------------------------------- cross-implementation

// The reference and full implementations must agree on the observable
// outcome of identical workloads (sum conservation and completion).
TEST(CrossCheck, BasicQueueMatchesFullQueueOutcome) {
  const int np = 2, nc = 2, per = 1500;
  long expected = 0;
  for (int p = 0; p < np; ++p)
    for (int i = 0; i < per; ++i) expected += p * per + i + 1;

  auto run_basic = [&] {
    dual_queue_basic<std::uint32_t> q;
    std::atomic<long> out{0};
    std::vector<std::thread> ts;
    for (int p = 0; p < np; ++p)
      ts.emplace_back([&, p] {
        for (int i = 0; i < per; ++i)
          q.enqueue(static_cast<std::uint32_t>(p * per + i + 1));
      });
    for (int c = 0; c < nc; ++c)
      ts.emplace_back([&] {
        for (int i = 0; i < per; ++i) out.fetch_add(q.dequeue());
      });
    for (auto &t : ts) t.join();
    return out.load();
  };
  auto run_full = [&] {
    fair_synchronous_queue<std::uint32_t> q;
    std::atomic<long> out{0};
    std::vector<std::thread> ts;
    for (int p = 0; p < np; ++p)
      ts.emplace_back([&, p] {
        for (int i = 0; i < per; ++i)
          q.put(static_cast<std::uint32_t>(p * per + i + 1));
      });
    for (int c = 0; c < nc; ++c)
      ts.emplace_back([&] {
        for (int i = 0; i < per; ++i) out.fetch_add(q.take());
      });
    for (auto &t : ts) t.join();
    return out.load();
  };

  EXPECT_EQ(run_basic(), expected);
  EXPECT_EQ(run_full(), expected);
}

TEST(CrossCheck, BasicStackMatchesFullStackOutcome) {
  const int n = 1500;
  long expected = static_cast<long>(n) * (n + 1) / 2;

  auto run_basic = [&] {
    dual_stack_basic<std::uint32_t> s;
    std::atomic<long> out{0};
    std::thread p([&] {
      for (int i = 1; i <= n; ++i) s.push(static_cast<std::uint32_t>(i));
    });
    for (int i = 0; i < n; ++i) out.fetch_add(s.pop());
    p.join();
    return out.load();
  };
  auto run_full = [&] {
    unfair_synchronous_queue<std::uint32_t> s;
    std::atomic<long> out{0};
    std::thread p([&] {
      for (int i = 1; i <= n; ++i) s.put(static_cast<std::uint32_t>(i));
    });
    for (int i = 0; i < n; ++i) out.fetch_add(s.take());
    p.join();
    return out.load();
  };

  EXPECT_EQ(run_basic(), expected);
  EXPECT_EQ(run_full(), expected);
}
