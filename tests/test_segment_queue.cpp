// Segmented waiter-cell core (core/segment_queue.hpp): cell protocol,
// segment churn/reaping, the facade and channel hookups, and the
// registering select path that only this core supports.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/segment_queue.hpp"
#include "core/select.hpp"
#include "core/synchronous_queue.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

using seg_q = segmented_synchronous_queue<int>;

// ------------------------------------------------------------- basic handoff

TEST(SegmentQueue, BlockingPutTake) {
  seg_q q;
  std::thread p([&] { q.put(41); });
  EXPECT_EQ(q.take(), 41);
  p.join();
  EXPECT_TRUE(q.is_empty());
  EXPECT_EQ(q.unsafe_length(), 0u);
}

TEST(SegmentQueue, FifoPairingAcrossSegmentBoundaries) {
  // One producer, one consumer, 5x the segment size: pairing follows the
  // monotonic cell index, so order must be exactly FIFO even as the
  // rendezvous point walks across segment boundaries.
  seg_q q;
  const int n = 5 * static_cast<int>(segment_queue<>::seg_cells);
  std::thread p([&] {
    for (int i = 0; i < n; ++i) q.put(i);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(q.take(), i);
  p.join();
}

TEST(SegmentQueue, NowOpsFailOnEmpty) {
  seg_q q;
  EXPECT_FALSE(q.offer(1));
  EXPECT_FALSE(q.poll().has_value());
  // Failed now-ops must not install anything a later op could pair with.
  EXPECT_TRUE(q.is_empty());
  std::thread p([&] { q.put(7); });
  EXPECT_EQ(q.take(), 7);
  p.join();
}

TEST(SegmentQueue, NowOpsSucceedAgainstWaitingPeer) {
  seg_q q;
  std::thread p([&] { q.put(13); });
  // Wait until the producer is visibly parked in its cell.
  while (q.is_empty()) std::this_thread::yield();
  std::optional<int> v;
  // The waiter may be mid-install; the counter pre-check can race it once,
  // so poll in a bounded loop rather than asserting the first one.
  for (int i = 0; i < 100000 && !v; ++i) v = q.poll();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 13);
  p.join();
}

// --------------------------------------------------------- timed + interrupt

TEST(SegmentQueue, TimedExpiryPoisonsAndHandsValueBack) {
  seg_q q;
  int v = 99;
  EXPECT_FALSE(q.try_put_ref(v, deadline::in(std::chrono::milliseconds(20))));
  EXPECT_EQ(v, 99); // value moved back out on cancellation
  EXPECT_FALSE(q.try_take(std::chrono::milliseconds(20)).has_value());
  // Poisoned cells burn indices, not liveness: the queue still pairs.
  EXPECT_TRUE(q.is_empty());
  std::thread p([&] { q.put(3); });
  EXPECT_EQ(q.take(), 3);
  p.join();
}

TEST(SegmentQueue, InterruptWakesWaiter) {
  seg_q q;
  sync::interrupt_token tok;
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    tok.interrupt();
  });
  auto t0 = steady_clock::now();
  EXPECT_FALSE(q.try_take(deadline::in(std::chrono::seconds(30)), &tok));
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(10));
  firer.join();
}

// --------------------------------------------------- segment churn / reaping

TEST(SegmentQueue, SegmentsRetireUnderChurn) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    seg_q q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    const int n = 20 * static_cast<int>(segment_queue<>::seg_cells);
    std::thread p([&] {
      for (int i = 0; i < n; ++i) q.put(i);
    });
    long sum = 0;
    for (int i = 0; i < n; ++i) sum += q.take();
    p.join();
    EXPECT_EQ(sum, static_cast<long>(n) * (n - 1) / 2);
    // 20 segments' worth of transfers must have reaped nearly all of them;
    // at most the live head plus one in-flight neighbor stay resident.
    EXPECT_GE(diag::read(diag::id::seg_retire), 18u);
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(SegmentQueue, EachSegmentRetiresOnceAfterItsLastCell) {
  // Each cell's two shares must reach `done` exactly once: one share too
  // many or too few keeps `done` off 128, and that segment (and every one
  // behind it) never retires. 4 segments of 1:1 transfers and no cell is
  // poisoned, so segments 0-2 each retire exactly once, when a later one
  // completes at the latest. Segment 3 never gets a successor and stays.
  // (With 3*64+1 transfers, segment 2 would retire only if the last
  // transfer linked segment 3 before segment 2's last share landed: a race.)
  diag::reset_all();
  {
    mem::hazard_domain dom;
    seg_q q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    const int n = 4 * static_cast<int>(segment_queue<>::seg_cells);
    std::thread p([&] {
      for (int i = 0; i < n; ++i) q.put(i);
    });
    for (int i = 0; i < n; ++i) EXPECT_EQ(q.take(), i);
    p.join();
    EXPECT_EQ(diag::read(diag::id::seg_retire), 3u);
    EXPECT_EQ(diag::read(diag::id::cell_poison), 0u);
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(SegmentQueue, LosingExtenderKeepsItsSegmentAsTheSpare) {
  // Both parties of a segment's first cell may build the next segment. The
  // loser of the link CAS keeps its copy as the queue's one spare for the
  // next extension, so over 64 segments of 1:1 ping-pong every segment
  // built is linked, save at most the spare.
  diag::reset_all();
  {
    mem::hazard_domain dom;
    seg_q q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    const int n = 64 * static_cast<int>(segment_queue<>::seg_cells);
    std::thread p([&] {
      for (int i = 0; i < n; ++i) q.put(i);
    });
    bool in_order = true;
    for (int i = 0; i < n; ++i) in_order &= q.take() == i;
    p.join();
    EXPECT_TRUE(in_order);
    const std::uint64_t built = diag::read(diag::id::node_alloc);
    const std::uint64_t linked = diag::read(diag::id::seg_alloc);
    EXPECT_GE(linked, 64u);
    EXPECT_LE(built - linked, 1u);
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(SegmentQueue, LiveCountsInstalledWaitersUntilTheyLeave) {
  auto settle_at = [](const seg_q &q, std::size_t want) {
    auto until = steady_clock::now() + std::chrono::seconds(30);
    while (q.unsafe_length() != want && steady_clock::now() < until)
      std::this_thread::yield();
    return q.unsafe_length();
  };
  seg_q q;
  // Two parked takers are two installed cells.
  std::thread t1([&] { EXPECT_GE(q.take(), 1); });
  std::thread t2([&] { EXPECT_GE(q.take(), 1); });
  EXPECT_EQ(settle_at(q, 2), 2u);
  q.put(1);
  q.put(2);
  t1.join();
  t2.join();
  EXPECT_EQ(q.unsafe_length(), 0u);
  EXPECT_TRUE(q.is_empty());

  // A timed take that expires leaves its cell too.
  EXPECT_FALSE(q.try_take(std::chrono::milliseconds(5)).has_value());
  EXPECT_EQ(q.unsafe_length(), 0u);

  // A select_take installs a reservation on each queue and leaves both,
  // the one it matched on and the one it poisons.
  seg_q a, b;
  std::thread sel([&] {
    auto r = select_take<int>(deadline::in(std::chrono::seconds(30)), a, b);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->first, 1u);
    EXPECT_EQ(r->second, 8);
  });
  EXPECT_EQ(settle_at(a, 1), 1u);
  EXPECT_EQ(settle_at(b, 1), 1u);
  b.put(8);
  sel.join();
  EXPECT_EQ(a.unsafe_length(), 0u);
  EXPECT_EQ(b.unsafe_length(), 0u);
}

TEST(SegmentQueue, ManyThreadsConserveValues) {
  seg_q q;
  const int threads = 4, per = 2000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < per; ++i) {
        int v = t * per + i + 1;
        q.put(v);
        in.fetch_add(v);
      }
    });
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(q.take());
    });
  }
  for (auto &th : ts) th.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(q.is_empty());
}

// -------------------------------------------------------- registering select

TEST(SegmentSelect, TakeReceivesFromReadyQueue) {
  seg_q a, b;
  std::thread p([&] { b.put(42); });
  auto r = select_take<int>(deadline::in(std::chrono::seconds(30)), a, b);
  p.join();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 1u);
  EXPECT_EQ(r->second, 42);
}

TEST(SegmentSelect, TakeTimesOutLeavingOnlyPoison) {
  seg_q a, b;
  auto t0 = steady_clock::now();
  auto r = select_take<int>(deadline::in(std::chrono::milliseconds(40)), a, b);
  EXPECT_FALSE(r.has_value());
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(35));
  // The timed-out reservations were poisoned, not leaked as live waiters.
  EXPECT_TRUE(a.is_empty());
  EXPECT_TRUE(b.is_empty());
  // Both queues still rendezvous normally afterwards.
  std::thread p([&] { a.put(5); });
  EXPECT_EQ(a.take(), 5);
  p.join();
}

TEST(SegmentSelect, PutDeliversToReadyConsumer) {
  seg_q a, b;
  std::thread c([&] { EXPECT_EQ(b.take(), 9); });
  int v = 9;
  auto r = select_put(v, deadline::in(std::chrono::seconds(30)), a, b);
  c.join();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 1u);
}

TEST(SegmentSelect, PutTimeoutHandsValueBack) {
  seg_q a, b;
  int v = 77;
  auto r = select_put(v, deadline::in(std::chrono::milliseconds(40)), a, b);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(v, 77);
  EXPECT_TRUE(a.is_empty());
  EXPECT_TRUE(b.is_empty());
}

TEST(SegmentSelect, SelectMeetsSelect) {
  // A registered put-select and a registered take-select must find each
  // other through the reservation protocol (no polling quantum exists to
  // save them): cross-select arbitration, both arbiters must commit.
  seg_q a, b;
  std::thread putter([&] {
    int v = 123;
    auto r = select_put(v, deadline::in(std::chrono::seconds(30)), a, b);
    ASSERT_TRUE(r.has_value());
  });
  auto r = select_take<int>(deadline::in(std::chrono::seconds(30)), a, b);
  putter.join();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->second, 123);
  EXPECT_TRUE(a.is_empty());
  EXPECT_TRUE(b.is_empty());
}

TEST(SegmentSelect, ManySelectorsDrainManyProducers) {
  seg_q a, b;
  const int per = 300;
  std::thread pa([&] {
    for (int i = 0; i < per; ++i) a.put(i);
  });
  std::thread pb([&] {
    for (int i = 0; i < per; ++i) b.put(1000 + i);
  });
  int from_a = 0, from_b = 0;
  long sum = 0;
  for (int i = 0; i < 2 * per; ++i) {
    auto r = select_take<int>(deadline::in(std::chrono::seconds(60)), a, b);
    ASSERT_TRUE(r.has_value());
    (r->first == 0 ? from_a : from_b)++;
    sum += r->second;
  }
  pa.join();
  pb.join();
  EXPECT_EQ(from_a, per);
  EXPECT_EQ(from_b, per);
  EXPECT_EQ(sum, (long)per * (per - 1) / 2 + (long)per * 1000 +
                     (long)per * (per - 1) / 2);
}

TEST(SegmentSelect, ConcurrentSelectorsRace) {
  // Multiple registered selectors compete for the same traffic: the loser
  // of each arbitration must re-register (its old cell was poisoned by the
  // partner) and still get its share eventually.
  seg_q a, b;
  const int items = 400;
  std::atomic<long> got{0};
  std::atomic<int> matched{0};
  std::vector<std::thread> sels;
  for (int s = 0; s < 3; ++s) {
    sels.emplace_back([&] {
      for (;;) {
        if (matched.load() >= items) return;
        auto r =
            select_take<int>(deadline::in(std::chrono::milliseconds(50)), a, b);
        if (r) {
          got.fetch_add(r->second);
          matched.fetch_add(1);
        }
      }
    });
  }
  long want = 0;
  for (int i = 0; i < items; ++i) {
    want += i;
    (i % 2 ? a : b).put(i);
  }
  for (auto &t : sels) t.join();
  EXPECT_EQ(matched.load(), items);
  EXPECT_EQ(got.load(), want);
  EXPECT_TRUE(a.is_empty());
  EXPECT_TRUE(b.is_empty());
}

// -------------------------------------------------------------- channel view

TEST(SegmentChannel, SendRecvAndClose) {
  segmented_channel<int> ch;
  std::thread p([&] { EXPECT_TRUE(ch.send(11)); });
  auto v = ch.recv();
  p.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 11);

  std::thread blocked([&] { EXPECT_FALSE(ch.recv().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  blocked.join();
  EXPECT_FALSE(ch.send(1));
}
