// White-box tests for the synchronous dual queue core (transfer_queue):
// token protocol, wait modes, cancellation cleaning (including the clean_me
// deferral), reclamation accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/transfer_queue.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }

} // namespace

TEST(TransferQueue, NowModeFailsOnEmpty) {
  transfer_queue<> q;
  EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::now), empty_token);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_TRUE(q.is_empty());
}

TEST(TransferQueue, AsyncProducerDoesNotWait) {
  transfer_queue<> q;
  item_token t = tok_of(5);
  EXPECT_EQ(q.xfer(t, true, wait_kind::async), t);
  EXPECT_FALSE(q.is_empty());
  EXPECT_TRUE(q.head_is_data());
  item_token r = q.xfer(empty_token, false, wait_kind::now);
  EXPECT_EQ(val_of(r), 5);
  EXPECT_TRUE(q.is_empty());
}

TEST(TransferQueue, AsyncPreservesFifo) {
  transfer_queue<> q;
  for (int i = 0; i < 100; ++i) q.xfer(tok_of(i), true, wait_kind::async);
  EXPECT_EQ(q.unsafe_length(), 100u);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), i);
}

TEST(TransferQueue, TimedConsumerExpires) {
  transfer_queue<> q;
  auto t0 = steady_clock::now();
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(TransferQueue, TimedProducerExpires) {
  transfer_queue<> q;
  item_token t = tok_of(1);
  EXPECT_EQ(q.xfer(t, true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  // Caller still owns the token (inline here, nothing to free).
}

TEST(TransferQueue, SyncPairRendezvous) {
  transfer_queue<> q;
  std::thread p([&] {
    item_token t = tok_of(11);
    EXPECT_EQ(q.xfer(t, true, wait_kind::sync), t);
  });
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::sync)), 11);
  p.join();
}

TEST(TransferQueue, CancelledNodeIsCleanedFromInterior) {
  transfer_queue<> q;
  // Build [D1, D2] async, then a timed consumer is irrelevant... instead:
  // park a timed producer behind an async one, let it cancel, verify the
  // interior node is spliced out.
  q.xfer(tok_of(1), true, wait_kind::async);
  std::thread timed([&] {
    EXPECT_EQ(q.xfer(tok_of(2), true, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(40))),
              empty_token);
  });
  // Wait until the timed producer is linked (length 2), then let it cancel.
  while (q.unsafe_length() < 2) std::this_thread::yield();
  // Append a third so the cancelled node is interior when cleaned.
  timed.join();
  q.xfer(tok_of(3), true, wait_kind::async);
  // Consume: must see 1 then 3; the cancelled 2 must be skipped.
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 1);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 3);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
}

TEST(TransferQueue, CancelledTailIsDeferredThenCollected) {
  diag::reset_all();
  transfer_queue<> q;
  // A timed producer alone in the queue cancels at the tail: clean() must
  // take the clean_me deferral path (it cannot splice the tail).
  EXPECT_EQ(q.xfer(tok_of(1), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(20))),
            empty_token);
  EXPECT_GE(diag::read(diag::id::clean_call), 1u);
  // The cancelled node lingers (deferred)...
  EXPECT_LE(q.unsafe_length(), 1u);
  // ...but ordinary traffic flows past it and collects it.
  q.xfer(tok_of(7), true, wait_kind::async);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 7);
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_LE(q.unsafe_length(), 1u);
}

TEST(TransferQueue, CancelledWaiterReturnsWhenPredecessorIsFrozen) {
  // Requests A, B, C link in that order. C cancels as the tail and defers
  // its predecessor (B's node) through clean_me; that entry cannot be
  // resolved while C stays the tail. A then cancels: its clean pops the
  // dummy, which freezes A's predecessor, so A can no longer be spliced.
  // A must still return at its deadline, not spin in clean() until B, an
  // untimed taker, is served.
  transfer_queue<> q;
  std::atomic<bool> a_returned{false};
  std::thread a([&] {
    EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                     deadline::in(std::chrono::milliseconds(300))),
              empty_token);
    a_returned.store(true);
  });
  while (q.unsafe_length() < 1) std::this_thread::yield();
  std::thread b([&] {
    EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::sync)), 9);
  });
  while (q.unsafe_length() < 2) std::this_thread::yield();
  EXPECT_EQ(q.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(1))),
            empty_token);
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!a_returned.load() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(a_returned.load())
      << "a cancelled waiter spun in clean() past its deadline";
  item_token nine = tok_of(9);
  EXPECT_EQ(q.xfer(nine, true, wait_kind::sync), nine);
  b.join();
  a.join();
}

TEST(TransferQueue, OfferStormDoesNotAccumulateGarbage) {
  // Paper Pragmatics: "items offered at a very high rate, but with a very
  // low time-out patience" must not build up cancelled nodes.
  transfer_queue<> q;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        // An inline token: a failed offer leaves nothing to dispose.
        (void)q.xfer(tok_of(i), true, wait_kind::timed,
                     deadline::in(std::chrono::microseconds(20)));
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_LE(q.unsafe_length(), 16u)
      << "cancelled-node cleaning failed to bound buildup";
}

TEST(TransferQueue, MixedModeStressConserves) {
  transfer_queue<> q;
  const int np = 3, nc = 3, per = 3000;
  std::atomic<long> in{0}, out{0};
  std::atomic<int> consumed{0};
  const int total = np * per;
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i) {
        int v = p * per + i + 1;
        for (;;) {
          item_token tk = tok_of(v);
          wait_kind wk = (i % 3 == 0) ? wait_kind::timed : wait_kind::sync;
          item_token r =
              q.xfer(tk, true, wk, deadline::in(std::chrono::milliseconds(2)));
          if (r != empty_token) break;
        }
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      while (consumed.load() < total) {
        item_token r = q.xfer(empty_token, false, wait_kind::timed,
                              deadline::in(std::chrono::milliseconds(2)));
        if (r != empty_token) {
          out.fetch_add(val_of(r));
          consumed.fetch_add(1);
        }
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_LE(q.unsafe_length(), 16u);
}

TEST(TransferQueue, NodesAreReclaimed) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_queue<> q(sync::spin_policy::adaptive(),
                       mem::pooled_hp_reclaimer{&dom});
    std::thread p([&] {
      for (int i = 0; i < 2000; ++i) q.xfer(tok_of(i), true, wait_kind::sync);
    });
    for (int i = 0; i < 2000; ++i)
      (void)val_of(q.xfer(empty_token, false, wait_kind::sync));
    p.join();
    dom.drain();
    // Everything retired must eventually be freed (destructor covers the
    // remainder; canary poisoning is exercised by ASan CI builds).
  }
  auto alloc = diag::read(diag::id::node_alloc);
  auto freed = diag::read(diag::id::node_free);
  EXPECT_EQ(alloc, freed) << "allocated nodes must all be freed or retired";
}

TEST(TransferQueue, InterruptCancelsWaiter) {
  transfer_queue<> q;
  sync::interrupt_token tok;
  std::atomic<bool> failed{false};
  std::thread c([&] {
    item_token r = q.xfer(empty_token, false, wait_kind::timed,
                          deadline::unbounded(), &tok);
    failed.store(r == empty_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.interrupt();
  c.join();
  EXPECT_TRUE(failed.load());
  // Queue remains usable.
  q.xfer(tok_of(1), true, wait_kind::async);
  EXPECT_EQ(val_of(q.xfer(empty_token, false, wait_kind::now)), 1);
}

TEST(TransferQueue, DestructorDisposesBufferedData) {
  // Boxed payloads buffered at destruction must be released through the
  // disposer (checked by ASan in sanitizer CI, and by box counters here).
  diag::reset_all();
  {
    transfer_queue<> q;
    q.set_token_disposer(
        [](item_token t) { item_codec<std::string>::dispose(t); });
    for (int i = 0; i < 10; ++i)
      q.xfer(item_codec<std::string>::encode(std::string(100, 'x')), true,
             wait_kind::async);
  }
  EXPECT_EQ(diag::read(diag::id::box_alloc), diag::read(diag::id::box_free));
}

TEST(TransferQueue, FifoAcrossManyAsyncProducers) {
  transfer_queue<> q;
  // Sequential per-producer order must survive concurrent async appends.
  const int np = 4, per = 2000;
  std::vector<std::thread> ts;
  for (int p = 0; p < np; ++p)
    ts.emplace_back([&, p] {
      for (int i = 0; i < per; ++i)
        q.xfer(tok_of(p * per + i), true, wait_kind::async);
    });
  for (auto &t : ts) t.join();
  std::vector<int> last(np, -1);
  for (int i = 0; i < np * per; ++i) {
    int v = val_of(q.xfer(empty_token, false, wait_kind::now));
    int p = v / per;
    EXPECT_GT(v % per, last[p]) << "per-producer FIFO violated";
    last[p] = v % per;
  }
}
