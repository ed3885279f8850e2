// White-box tests for the synchronous dual stack core (transfer_stack):
// annihilation protocol, helping, cancellation, LIFO service, reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/transfer_stack.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }

} // namespace

TEST(TransferStack, NowModeFailsOnEmpty) {
  transfer_stack<> s;
  EXPECT_EQ(s.xfer(tok_of(1), true, wait_kind::now), empty_token);
  EXPECT_EQ(s.xfer(empty_token, false, wait_kind::now), empty_token);
  EXPECT_TRUE(s.is_empty());
}

TEST(TransferStack, SyncPairRendezvous) {
  transfer_stack<> s;
  std::thread p([&] {
    item_token t = tok_of(21);
    EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  });
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::sync)), 21);
  p.join();
}

TEST(TransferStack, ReverseDirectionRendezvous) {
  // Consumer first, producer fulfills: exercises the fulfilling-node path
  // from the producer side.
  transfer_stack<> s;
  std::atomic<int> got{-1};
  std::thread c([&] {
    got.store(val_of(s.xfer(empty_token, false, wait_kind::sync)));
  });
  while (s.is_empty()) std::this_thread::yield(); // reservation linked
  item_token t = tok_of(33);
  EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  c.join();
  EXPECT_EQ(got.load(), 33);
}

TEST(TransferStack, TimedConsumerExpires) {
  transfer_stack<> s;
  auto t0 = steady_clock::now();
  EXPECT_EQ(s.xfer(empty_token, false, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(25));
  EXPECT_LE(s.unsafe_length(), 1u); // cancelled node may linger briefly
}

TEST(TransferStack, TimedProducerExpires) {
  transfer_stack<> s;
  EXPECT_EQ(s.xfer(tok_of(1), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(30))),
            empty_token);
}

TEST(TransferStack, CancelledNodesAreShedByTraffic) {
  transfer_stack<> s;
  // Stack up several cancelled reservations.
  std::vector<std::thread> cs;
  for (int i = 0; i < 4; ++i)
    cs.emplace_back([&] {
      EXPECT_EQ(s.xfer(empty_token, false, wait_kind::timed,
                       deadline::in(std::chrono::milliseconds(20))),
                empty_token);
    });
  for (auto &t : cs) t.join();
  // New traffic must skip the garbage and pair correctly.
  std::thread c([&] {
    EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::sync)), 5);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  item_token t = tok_of(5);
  EXPECT_EQ(s.xfer(t, true, wait_kind::sync), t);
  c.join();
  EXPECT_LE(s.unsafe_length(), 5u);
}

// A timed producer atop a parked one cancels, and its own clean() pops its
// node off the top before xfer returns, so a now-mode consumer finds the
// parked datum at the head. The now-mode branch that meets a cancelled top
// runs only between the cancel CAS and that clean(); it is left to the
// exhaustive schedule checker (ROADMAP, "Exhaustive small-scope schedule
// checking").
TEST(TransferStack, CancelledWaiterCleansItselfOffTheTop) {
  transfer_stack<> s;
  std::thread p([&] { s.xfer(tok_of(1), true, wait_kind::sync); });
  while (s.unsafe_length() < 1) std::this_thread::yield();
  EXPECT_EQ(s.xfer(tok_of(2), true, wait_kind::timed,
                   deadline::in(std::chrono::milliseconds(15))),
            empty_token);
  EXPECT_EQ(s.unsafe_length(), 1u); // only the parked producer is left
  EXPECT_EQ(val_of(s.xfer(empty_token, false, wait_kind::now)), 1);
  p.join();
}

TEST(TransferStack, LifoServiceOfWaiters) {
  // Unfairness property: of two parked waiters, the most recent is served
  // first, whether consumers wait for data or producers wait to hand off.
  for (bool producers_wait : {false, true}) {
    SCOPED_TRACE(producers_wait ? "parked producers" : "parked consumers");
    transfer_stack<> s;
    // Waiter w and counterpart c meet over the value w + 1 (a producer
    // waits) or c + 1 (a consumer waits); met[c] is the waiter c met.
    std::atomic<int> met[2] = {-1, -1};
    std::vector<std::thread> waiters;
    for (int w = 0; w < 2; ++w) {
      waiters.emplace_back([&, w] {
        if (producers_wait)
          s.xfer(tok_of(w + 1), true, wait_kind::sync);
        else
          met[val_of(s.xfer(empty_token, false, wait_kind::sync)) - 1] = w;
      });
      while (s.unsafe_length() < static_cast<std::size_t>(w + 1))
        std::this_thread::yield();
    }
    for (int c = 0; c < 2; ++c) {
      if (producers_wait)
        met[c] = val_of(s.xfer(empty_token, false, wait_kind::sync)) - 1;
      else
        s.xfer(tok_of(c + 1), true, wait_kind::sync);
    }
    for (auto &t : waiters) t.join();
    EXPECT_EQ(met[0].load(), 1) << "top of stack (most recent) is served first";
    EXPECT_EQ(met[1].load(), 0);
  }
}

TEST(TransferStack, MixedModeStressConserves) {
  transfer_stack<> s;
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
              s.xfer(tk, true, wk, deadline::in(std::chrono::milliseconds(2)));
          if (r != empty_token) break;
        }
        in.fetch_add(v);
      }
    });
  for (int c = 0; c < nc; ++c)
    ts.emplace_back([&] {
      while (consumed.load() < total) {
        item_token r = s.xfer(empty_token, false, wait_kind::timed,
                              deadline::in(std::chrono::milliseconds(2)));
        if (r != empty_token) {
          out.fetch_add(val_of(r));
          consumed.fetch_add(1);
        }
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_LE(s.unsafe_length(), 16u);
}

TEST(TransferStack, NodesAreReclaimed) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_stack<> s(sync::spin_policy::adaptive(),
                       mem::pooled_hp_reclaimer{&dom});
    std::thread p([&] {
      for (int i = 0; i < 2000; ++i) s.xfer(tok_of(i), true, wait_kind::sync);
    });
    for (int i = 0; i < 2000; ++i)
      (void)val_of(s.xfer(empty_token, false, wait_kind::sync));
    p.join();
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc),
            diag::read(diag::id::node_free));
}

TEST(TransferStack, InterruptCancelsWaiter) {
  transfer_stack<> s;
  sync::interrupt_token tok;
  std::atomic<bool> failed{false};
  std::thread c([&] {
    item_token r = s.xfer(empty_token, false, wait_kind::timed,
                          deadline::unbounded(), &tok);
    failed.store(r == empty_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tok.interrupt();
  c.join();
  EXPECT_TRUE(failed.load());
  // The stack still serves: a now-mode consumer meets a parked producer.
  std::thread p([&] { s.xfer(tok_of(1), true, wait_kind::sync); });
  item_token r;
  while ((r = s.xfer(empty_token, false, wait_kind::now)) == empty_token)
    std::this_thread::yield();
  EXPECT_EQ(val_of(r), 1);
  p.join();
}

TEST(TransferStack, HelpersCompleteStrandedFulfillment) {
  // Many threads hammering a small stack force the helping path (third
  // branch of transfer): if helping were broken this would livelock; the
  // conservation check catches value corruption.
  transfer_stack<> s;
  const int n = 4, per = 4000;
  std::atomic<long> in{0}, out{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&, i] {
      if (i % 2 == 0) {
        for (int j = 0; j < per; ++j) {
          int v = i * per + j + 1;
          s.xfer(tok_of(v), true, wait_kind::sync);
          in.fetch_add(v);
        }
      } else {
        for (int j = 0; j < per; ++j)
          out.fetch_add(val_of(s.xfer(empty_token, false, wait_kind::sync)));
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(in.load(), out.load());
  EXPECT_TRUE(s.is_empty());
}
