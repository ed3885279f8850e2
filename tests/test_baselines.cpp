// Tests for the paper's baseline algorithms: the naive monitor queue
// (Listing 3), Hanson's semaphore queue (Listing 1), and the Java SE 5.0
// lock-based queue (Listing 4, both modes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hanson_sq.hpp"
#include "baselines/java5_sq.hpp"
#include "baselines/naive_sq.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

// Yield until `n` more threads than at `base` have parked. java5_sq links a
// waiter into its list under the lock before the waiter can park, so a
// parked count orders the waiters without guessing at sleep lengths.
static void await_parked(std::uint64_t base, std::uint64_t n) {
  while (diag::read(diag::id::park) < base + n) std::this_thread::yield();
}

// Shared battery run against each baseline via small wrappers.
template <typename Q>
void pair_handoff() {
  Q q;
  std::thread p([&] { q.put(7); });
  EXPECT_EQ(q.take(), 7);
  p.join();
}

template <typename Q>
void many_handoffs() {
  Q q;
  const int n = 2000;
  std::thread p([&] {
    for (int i = 0; i < n; ++i) q.put(i);
  });
  long sum = 0;
  for (int i = 0; i < n; ++i) sum += q.take();
  p.join();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}

template <typename Q>
void n_to_n_conservation(int np, int nc, int per) {
  Q q;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        q.put(v);
        in.fetch_add(v);
      }
    });
  const int total = np * per;
  auto cq = total / nc;
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&, c] {
      int quota = cq + (c < total % nc ? 1 : 0);
      for (int i = 0; i < quota; ++i) out.fetch_add(q.take());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
}

template <typename Q>
void producer_blocks_until_consumer() {
  Q q;
  std::atomic<bool> put_done{false};
  std::thread p([&] {
    q.put(1);
    put_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(put_done.load()) << "synchronous put must wait for a consumer";
  EXPECT_EQ(q.take(), 1);
  p.join();
  EXPECT_TRUE(put_done.load());
}

// ---------------------------------------------------------------- naive

TEST(NaiveSq, PairHandoff) { pair_handoff<naive_sq<int>>(); }
TEST(NaiveSq, ManyHandoffs) { many_handoffs<naive_sq<int>>(); }
TEST(NaiveSq, Conservation4x4) { n_to_n_conservation<naive_sq<int>>(4, 4, 500); }
TEST(NaiveSq, ProducerBlocks) {
  producer_blocks_until_consumer<naive_sq<int>>();
}

TEST(NaiveSq, OfferFailsWithoutConsumer) {
  naive_sq<int> q;
  EXPECT_FALSE(q.offer(1));
}

TEST(NaiveSq, PollFailsWithoutProducer) {
  naive_sq<int> q;
  EXPECT_FALSE(q.poll().has_value());
}

TEST(NaiveSq, TimedOfferExpiresAndRetracts) {
  naive_sq<int> q;
  EXPECT_FALSE(q.offer(9, deadline::in(std::chrono::milliseconds(30))));
  // The offered item must have been retracted: a later poll sees nothing.
  EXPECT_FALSE(q.poll().has_value());
}

TEST(NaiveSq, TimedPollSucceedsWhenProducerArrives) {
  naive_sq<int> q;
  std::thread p([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.put(3);
  });
  auto v = q.poll(deadline::in(std::chrono::seconds(5)));
  p.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3);
}

TEST(NaiveSq, StringPayload) {
  naive_sq<std::string> q;
  std::thread p([&] { q.put("hello"); });
  EXPECT_EQ(q.take(), "hello");
  p.join();
}

// ---------------------------------------------------------------- hanson

TEST(HansonSq, PairHandoff) { pair_handoff<hanson_sq<int>>(); }
TEST(HansonSq, ManyHandoffs) { many_handoffs<hanson_sq<int>>(); }
TEST(HansonSq, Conservation4x4) {
  n_to_n_conservation<hanson_sq<int>>(4, 4, 500);
}
TEST(HansonSq, ProducerBlocks) {
  producer_blocks_until_consumer<hanson_sq<int>>();
}

TEST(HansonSq, NoTimedSupportByDesign) {
  // Paper §3.1/3.3: Hanson's algorithm offers no simple timeout path.
  static_assert(!hanson_sq<int>::supports_timed);
  SUCCEED();
}

TEST(HansonSq, MoveOnlyPayload) {
  hanson_sq<std::unique_ptr<int>> q;
  std::thread p([&] { q.put(std::make_unique<int>(5)); });
  auto v = q.take();
  p.join();
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 5);
}

TEST(HansonSq, SingleConsumerManyProducers) {
  hanson_sq<int> q;
  const int np = 6, per = 300;
  std::vector<std::thread> ps;
  std::atomic<long> in{0};
  for (int p = 0; p < np; ++p)
    ps.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        q.put(v);
        in.fetch_add(v);
      }
    });
  long out = 0;
  for (int i = 0; i < np * per; ++i) out += q.take();
  for (auto &t : ps) t.join();
  EXPECT_EQ(out, in.load());
}

// ---------------------------------------------------------------- java5

using j5_fair = java5_sq<int, true>;
using j5_unfair = java5_sq<int, false>;

TEST(Java5Fair, PairHandoff) { pair_handoff<j5_fair>(); }
TEST(Java5Fair, ManyHandoffs) { many_handoffs<j5_fair>(); }
TEST(Java5Fair, Conservation4x4) { n_to_n_conservation<j5_fair>(4, 4, 500); }
TEST(Java5Fair, ProducerBlocks) {
  producer_blocks_until_consumer<j5_fair>();
}

TEST(Java5Unfair, PairHandoff) { pair_handoff<j5_unfair>(); }
TEST(Java5Unfair, ManyHandoffs) { many_handoffs<j5_unfair>(); }
TEST(Java5Unfair, Conservation4x4) {
  n_to_n_conservation<j5_unfair>(4, 4, 500);
}
TEST(Java5Unfair, ProducerBlocks) {
  producer_blocks_until_consumer<j5_unfair>();
}

TEST(Java5, OfferAndPollNonBlocking) {
  j5_fair q;
  EXPECT_FALSE(q.offer(1));
  EXPECT_FALSE(q.poll().has_value());
}

TEST(Java5, OfferSucceedsWithWaitingConsumer) {
  j5_fair q;
  std::atomic<int> got{-1};
  const std::uint64_t parked = diag::read(diag::id::park);
  std::thread c([&] { got.store(*q.poll(deadline::in(std::chrono::seconds(10)))); });
  await_parked(parked, 1);
  EXPECT_TRUE(q.offer(5));
  c.join();
  EXPECT_EQ(got.load(), 5);
}

TEST(Java5, PollSucceedsWithWaitingProducer) {
  j5_unfair q;
  std::thread p([&] { q.put(6); });
  std::optional<int> v;
  // Poll until the producer has parked.
  for (int i = 0; i < 10000 && !v; ++i) {
    v = q.poll();
    if (!v) std::this_thread::yield();
  }
  p.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 6);
}

TEST(Java5, TimedOfferExpires) {
  j5_fair q;
  auto t0 = steady_clock::now();
  EXPECT_FALSE(q.offer(1, deadline::in(std::chrono::milliseconds(30))));
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(Java5, TimedPollExpires) {
  j5_unfair q;
  EXPECT_FALSE(q.poll(deadline::in(std::chrono::milliseconds(30))).has_value());
}

TEST(Java5, CancelledWaiterDoesNotCorruptLists) {
  j5_fair q;
  // Let several producers time out, then verify normal operation.
  std::vector<std::thread> ps;
  for (int i = 0; i < 4; ++i)
    ps.emplace_back([&, i] {
      EXPECT_FALSE(q.offer(i, deadline::in(std::chrono::milliseconds(10 + i))));
    });
  for (auto &t : ps) t.join();
  std::thread p([&] { q.put(42); });
  EXPECT_EQ(q.take(), 42);
  p.join();
}

TEST(Java5Fair, FifoServiceOrder) {
  // Consumers C1, C2 wait in order; producers must serve C1 first.
  j5_fair q;
  std::atomic<int> r1{-1}, r2{-1};
  const std::uint64_t parked = diag::read(diag::id::park);
  std::thread c1([&] { r1.store(q.take()); });
  await_parked(parked, 1);
  std::thread c2([&] { r2.store(q.take()); });
  await_parked(parked, 2);
  q.put(1);
  c1.join();
  EXPECT_EQ(r1.load(), 1) << "fair mode must serve the oldest waiter";
  q.put(2);
  c2.join();
  EXPECT_EQ(r2.load(), 2);
}

TEST(Java5Unfair, LifoTendency) {
  // Unfair mode pushes waiters on a stack: the most recent waiter is served
  // first.
  j5_unfair q;
  std::atomic<int> r1{-1}, r2{-1};
  const std::uint64_t parked = diag::read(diag::id::park);
  std::thread c1([&] { r1.store(q.take()); });
  await_parked(parked, 1);
  std::thread c2([&] { r2.store(q.take()); });
  await_parked(parked, 2);
  q.put(1); // should go to c2 (top of stack)
  q.put(2);
  c1.join();
  c2.join();
  EXPECT_EQ(r2.load(), 1) << "unfair mode serves the most recent waiter";
  EXPECT_EQ(r1.load(), 2);
}

TEST(Java5, TryPutRefReturnsValueOnFailure) {
  j5_unfair q;
  int v = 77;
  EXPECT_FALSE(q.try_put_ref(v, deadline::expired()));
  EXPECT_EQ(v, 77) << "value must be preserved on failed handoff";
}

TEST(Java5, InterruptWakesWaiter) {
  j5_fair q;
  sync::interrupt_token tok;
  std::atomic<bool> done{false};
  std::thread c([&] {
    EXPECT_FALSE(q.poll(deadline::unbounded(), &tok).has_value());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  tok.interrupt();
  c.join();
  EXPECT_TRUE(done.load());
}

TEST(Java5, StringPayloadStress) {
  java5_sq<std::string, false> q;
  const int n = 1000;
  std::thread p([&] {
    for (int i = 0; i < n; ++i) q.put(std::to_string(i));
  });
  long sum = 0;
  for (int i = 0; i < n; ++i) sum += std::stol(q.take());
  p.join();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}
