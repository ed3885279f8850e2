// Tests for the typed facade (synchronous_queue) and the TransferQueue
// extension (linked_transfer_queue), including the paper's semantic
// properties: synchrony, fairness (§2.2 ordering example), timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/linked_transfer_queue.hpp"
#include "core/synchronous_queue.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

template <typename Q>
class SyncQueueBothModes : public ::testing::Test {};

using BothModes = ::testing::Types<synchronous_queue<int, true>,
                                   synchronous_queue<int, false>>;
TYPED_TEST_SUITE(SyncQueueBothModes, BothModes);

TYPED_TEST(SyncQueueBothModes, PairHandoff) {
  TypeParam q;
  std::thread p([&] { q.put(5); });
  EXPECT_EQ(q.take(), 5);
  p.join();
}

TYPED_TEST(SyncQueueBothModes, PutBlocksUntilTake) {
  TypeParam q;
  std::atomic<bool> done{false};
  std::thread p([&] {
    q.put(1);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load()) << "synchronous put must wait for its consumer";
  EXPECT_EQ(q.take(), 1);
  p.join();
  EXPECT_TRUE(done.load());
}

TYPED_TEST(SyncQueueBothModes, TakeBlocksUntilPut) {
  TypeParam q;
  std::atomic<bool> done{false};
  std::thread c([&] {
    EXPECT_EQ(q.take(), 2);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  q.put(2);
  c.join();
}

TYPED_TEST(SyncQueueBothModes, OfferRequiresWaitingConsumer) {
  TypeParam q;
  EXPECT_FALSE(q.offer(1)) << "no consumer -> offer fails";
  std::atomic<int> got{-1};
  std::thread c([&] { got.store(*q.try_take(std::chrono::seconds(10))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(q.offer(9)) << "waiting consumer -> offer succeeds";
  c.join();
  EXPECT_EQ(got.load(), 9);
}

TYPED_TEST(SyncQueueBothModes, PollRequiresWaitingProducer) {
  TypeParam q;
  EXPECT_FALSE(q.poll().has_value());
  std::thread p([&] { q.put(4); });
  std::optional<int> v;
  while (!v) {
    v = q.poll();
    if (!v) std::this_thread::yield();
  }
  p.join();
  EXPECT_EQ(*v, 4);
}

TYPED_TEST(SyncQueueBothModes, TimedOpsExpire) {
  TypeParam q;
  EXPECT_FALSE(q.try_put(1, std::chrono::milliseconds(20)));
  EXPECT_FALSE(q.try_take(std::chrono::milliseconds(20)).has_value());
}

TYPED_TEST(SyncQueueBothModes, TimedOpsSucceedWithCounterpart) {
  TypeParam q;
  std::thread p([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(q.try_put(8, std::chrono::seconds(10)));
  });
  auto v = q.try_take(std::chrono::seconds(10));
  p.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 8);
}

TYPED_TEST(SyncQueueBothModes, InterruptAbortsWait) {
  TypeParam q;
  sync::interrupt_token tok;
  std::atomic<bool> aborted{false};
  std::thread c([&] {
    aborted.store(!q.try_take(deadline::unbounded(), &tok).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.interrupt();
  c.join();
  EXPECT_TRUE(aborted.load());
}

TYPED_TEST(SyncQueueBothModes, NToNConservation) {
  TypeParam q;
  const int np = 3, nc = 3, per = 3000;
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
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(q.take());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(q.is_empty());
}

TYPED_TEST(SyncQueueBothModes, TryPutRefRestoresValue) {
  TypeParam q;
  int v = 31337;
  EXPECT_FALSE(q.try_put_ref(v, deadline::expired()));
  EXPECT_EQ(v, 31337);
}

// Boxed payloads (strings) through both modes.
template <typename Q>
class SyncQueueBoxed : public ::testing::Test {};
using BoxedModes = ::testing::Types<synchronous_queue<std::string, true>,
                                    synchronous_queue<std::string, false>>;
TYPED_TEST_SUITE(SyncQueueBoxed, BoxedModes);

TYPED_TEST(SyncQueueBoxed, RoundTrip) {
  TypeParam q;
  std::thread p([&] { q.put(std::string(2000, 'z')); });
  EXPECT_EQ(q.take(), std::string(2000, 'z'));
  p.join();
}

TYPED_TEST(SyncQueueBoxed, FailedTimedPutDoesNotLeakBox) {
  diag::reset_all();
  TypeParam q;
  EXPECT_FALSE(q.try_put(std::string("gone"), std::chrono::milliseconds(10)));
  EXPECT_EQ(diag::read(diag::id::box_alloc), diag::read(diag::id::box_free));
}

TYPED_TEST(SyncQueueBoxed, MoveOnlyPayloadCompiles) {
  // unique_ptr through the synchronous queue exercises the box-move path.
  synchronous_queue<std::unique_ptr<int>, TypeParam::is_fair> q;
  std::thread p([&] { q.put(std::make_unique<int>(77)); });
  auto v = q.take();
  p.join();
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 77);
}

// ------------------------------------------- spin when next in line (§3.3)

// "Nodes next in line for fulfillment spin briefly ... before parking."
// In a 1:1 request/reply ping-pong every waiter is next in line, and its
// partner arrives within one round trip of the other queue, so nearly every
// wait must end while spinning. A core whose `at_front` predicate misses
// that waiter parks on about every transfer.
template <typename Q>
class NextInLineSpins : public ::testing::Test {};
using AllCores = ::testing::Types<segmented_synchronous_queue<int>,
                                  fair_synchronous_queue<int>,
                                  unfair_synchronous_queue<int>>;
TYPED_TEST_SUITE(NextInLineSpins, AllCores);

TYPED_TEST(NextInLineSpins, PingPongRarelyParks) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "spin_policy::adaptive() spins 0 on one CPU";
  constexpr int warmup = 2000;
  constexpr int round_trips = 24000;
  TypeParam request, reply;
  std::thread server([&] {
    for (int i = 0; i < warmup + round_trips; ++i)
      reply.put(request.take() + 1);
  });
  int wrong = 0;
  auto round_trip = [&](int i) {
    request.put(i);
    if (reply.take() != i + 1) ++wrong;
  };
  for (int i = 0; i < warmup; ++i) round_trip(i);
  auto before = diag::snapshot::take();
  for (int i = warmup; i < warmup + round_trips; ++i) round_trip(i);
  auto parks = (diag::snapshot::take() - before)[diag::id::park];
  server.join();
  EXPECT_EQ(wrong, 0);
  double per_transfer = static_cast<double>(parks) / (2.0 * round_trips);
  EXPECT_LT(per_transfer, 0.25)
      << parks << " parks over " << 2 * round_trips << " transfers";
}

// ------------------------------------------------------- fairness (§2.2)

TEST(Fairness, FairModeServesOldestRequestFirst) {
  // The dual-data-structure ordering example from §2.2: A's dequeue request
  // linearizes before B's; A must receive the first enqueued item.
  fair_synchronous_queue<int> q;
  std::atomic<int> a_result{-1}, b_result{-1};
  std::thread a([&] { a_result.store(q.take()); });
  while (q.is_empty()) std::this_thread::yield(); // A's reservation linked
  std::thread b([&] { b_result.store(q.take()); });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  q.put(1); // C enqueues a 1
  q.put(2); // D enqueues a 2
  a.join();
  b.join();
  EXPECT_EQ(a_result.load(), 1) << "A requested first and must get the 1";
  EXPECT_EQ(b_result.load(), 2);
}

TEST(Fairness, FairModeServesWaitingProducersFifo) {
  fair_synchronous_queue<int> q;
  std::thread p1([&] { q.put(1); });
  while (q.is_empty()) std::this_thread::yield();
  std::thread p2([&] { q.put(2); });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  EXPECT_EQ(q.take(), 1);
  EXPECT_EQ(q.take(), 2);
  p1.join();
  p2.join();
}

TEST(Fairness, UnfairModeServesNewestRequestFirst) {
  unfair_synchronous_queue<int> q;
  std::atomic<int> a_result{-1}, b_result{-1};
  std::thread a([&] { a_result.store(q.take()); });
  while (q.is_empty()) std::this_thread::yield();
  std::thread b([&] { b_result.store(q.take()); });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  q.put(1);
  b.join();
  EXPECT_EQ(b_result.load(), 1) << "stack mode serves the newest waiter";
  q.put(2);
  a.join();
  EXPECT_EQ(a_result.load(), 2);
}

// ------------------------------------------------------- LTQ extension

TEST(LinkedTransferQueue, PutNeverBlocks) {
  linked_transfer_queue<int> q;
  for (int i = 0; i < 1000; ++i) q.put(i);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(q.take(), i) << "FIFO buffering";
}

TEST(LinkedTransferQueue, TransferBlocksLikeSyncQueue) {
  linked_transfer_queue<int> q;
  std::atomic<bool> done{false};
  std::thread p([&] {
    q.transfer(5);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load()) << "transfer waits for a consumer";
  EXPECT_EQ(q.take(), 5);
  p.join();
}

TEST(LinkedTransferQueue, TryTransferRequiresConsumer) {
  linked_transfer_queue<int> q;
  EXPECT_FALSE(q.try_transfer(1));
  std::atomic<int> got{-1};
  std::thread c([&] { got.store(*q.poll(deadline::in(std::chrono::seconds(10)))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(q.try_transfer(6));
  c.join();
  EXPECT_EQ(got.load(), 6);
}

TEST(LinkedTransferQueue, MixedSyncAsyncOrder) {
  // Async and sync producers share one FIFO list: order of linearization is
  // order of delivery.
  linked_transfer_queue<int> q;
  q.put(1);
  q.put(2);
  std::thread p([&] { q.transfer(3); });
  while (q.unsafe_length() < 3) std::this_thread::yield();
  EXPECT_EQ(q.take(), 1);
  EXPECT_EQ(q.take(), 2);
  EXPECT_EQ(q.take(), 3);
  p.join();
}

TEST(LinkedTransferQueue, HasWaitingConsumer) {
  linked_transfer_queue<int> q;
  EXPECT_FALSE(q.has_waiting_consumer());
  std::thread c([&] { (void)q.take(); });
  while (!q.has_waiting_consumer()) std::this_thread::yield();
  q.put(1);
  c.join();
  EXPECT_FALSE(q.has_waiting_consumer());
}

TEST(LinkedTransferQueue, HasWaitingConsumerDuringTransfers) {
  // The observer reads the head node and its successor while transfers
  // retire them. Unprotected, those reads hit freed pool blocks, which
  // ASan reports as use-after-poison.
  linked_transfer_queue<int> q;
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed))
      (void)q.has_waiting_consumer();
  });
  int mismatches = 0;
  std::thread consumer([&] {
    for (int want = 1;; ++want) {
      int v = q.take();
      if (v < 0) return;
      if (v != want) ++mismatches;
    }
  });
  const auto end = steady_clock::now() + std::chrono::seconds(2);
  for (int i = 1; i <= 2'000'000; ++i) {
    q.transfer(i);
    if (i % 1024 == 0 && steady_clock::now() > end) break;
  }
  q.transfer(-1);
  consumer.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();
  EXPECT_EQ(mismatches, 0);
}

TEST(LinkedTransferQueue, PollTimedOnBufferedData) {
  linked_transfer_queue<int> q;
  q.put(9);
  auto v = q.poll(deadline::in(std::chrono::milliseconds(50)));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_FALSE(q.poll(deadline::in(std::chrono::milliseconds(10))).has_value());
}

TEST(LinkedTransferQueue, DestructorReleasesBufferedBoxes) {
  diag::reset_all();
  {
    linked_transfer_queue<std::string> q;
    for (int i = 0; i < 25; ++i) q.put(std::string(128, 'b'));
  }
  EXPECT_EQ(diag::read(diag::id::box_alloc), diag::read(diag::id::box_free));
}

TEST(LinkedTransferQueue, ProducerConsumerStress) {
  linked_transfer_queue<int> q;
  const int np = 2, nc = 2, per = 4000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        if (i % 2)
          q.put(v);
        else
          q.transfer(v);
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      for (int i = 0; i < per; ++i) out.fetch_add(q.take());
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
}
