// Exhaustive wait-mode matrix for both transfer cores.
//
// Each of the producer modes {now, timed-short, timed-long, sync, async}
// crossed with each consumer mode {now, timed-short, timed-long, sync} has a
// defined outcome depending on arrival order; this suite pins those
// semantics down pairwise, for the queue and the stack, via
// INSTANTIATE_TEST_SUITE_P. Only the queue has the async mode, so its cases
// run in a queue-only fixture.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/transfer_queue.hpp"
#include "core/transfer_stack.hpp"
#include "support/codec.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }
int val_of(item_token t) { return item_codec<int>::decode_consume(t); }

// Type-erased core handle.
struct core_iface {
  virtual ~core_iface() = default;
  virtual item_token xfer(item_token e, bool is_data, wait_kind wk,
                          deadline dl) = 0;
  virtual std::size_t length() const = 0;
};

template <typename C>
struct core_impl final : core_iface {
  explicit core_impl(mem::hazard_domain *dom)
      : c(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{dom}) {}
  C c;
  item_token xfer(item_token e, bool is_data, wait_kind wk,
                  deadline dl) override {
    return c.xfer(e, is_data, wk, dl);
  }
  std::size_t length() const override { return c.unsafe_length(); }
};

enum class which { queue, stack };

struct mode_param {
  which structure;
  const char *name;
};

std::unique_ptr<core_iface> make(
    which w, mem::hazard_domain *dom = &mem::hazard_domain::global()) {
  if (w == which::queue)
    return std::make_unique<core_impl<transfer_queue<>>>(dom);
  return std::make_unique<core_impl<transfer_stack<>>>(dom);
}

std::string pname(const ::testing::TestParamInfo<mode_param> &i) {
  return i.param.name;
}

deadline short_dl() { return deadline::in(std::chrono::milliseconds(25)); }
deadline long_dl() { return deadline::in(std::chrono::seconds(20)); }

class ModeMatrix : public ::testing::TestWithParam<mode_param> {
 protected:
  std::unique_ptr<core_iface> q = make(GetParam().structure);
};

class QueueAsyncModes : public ::testing::Test {
 protected:
  std::unique_ptr<core_iface> q = make(which::queue);
};

} // namespace

// ---- Both sides non-blocking: never succeed without a parked peer. ----

TEST_P(ModeMatrix, NowProducerAloneFails) {
  EXPECT_EQ(q->xfer(tok_of(1), true, wait_kind::now, deadline::expired()),
            empty_token);
  EXPECT_EQ(q->length(), 0u);
}

TEST_P(ModeMatrix, NowConsumerAloneFails) {
  EXPECT_EQ(q->xfer(empty_token, false, wait_kind::now, deadline::expired()),
            empty_token);
  EXPECT_EQ(q->length(), 0u);
}

TEST_P(ModeMatrix, NowPairNeverMeets) {
  // Two non-blocking ops cannot rendezvous even when interleaved heavily.
  std::atomic<int> successes{0};
  std::thread a([&] {
    for (int i = 0; i < 2000; ++i)
      if (q->xfer(tok_of(i + 1), true, wait_kind::now, deadline::expired()) !=
          empty_token)
        successes.fetch_add(1);
  });
  std::thread b([&] {
    for (int i = 0; i < 2000; ++i) {
      item_token r =
          q->xfer(empty_token, false, wait_kind::now, deadline::expired());
      if (r != empty_token) {
        (void)val_of(r);
        successes.fetch_add(1);
      }
    }
  });
  a.join();
  b.join();
  // now-mode ops never install nodes, so no rendezvous is possible.
  EXPECT_EQ(successes.load(), 0);
}

// ---- now vs parked peer: succeeds. ----

TEST_P(ModeMatrix, NowProducerMeetsSyncConsumer) {
  std::atomic<int> got{-1};
  std::thread c([&] {
    got.store(val_of(q->xfer(empty_token, false, wait_kind::sync, long_dl())));
  });
  while (q->length() < 1) std::this_thread::yield();
  EXPECT_NE(q->xfer(tok_of(77), true, wait_kind::now, deadline::expired()),
            empty_token);
  c.join();
  EXPECT_EQ(got.load(), 77);
}

TEST_P(ModeMatrix, NowConsumerMeetsSyncProducer) {
  std::thread p([&] {
    EXPECT_NE(q->xfer(tok_of(88), true, wait_kind::sync, long_dl()),
              empty_token);
  });
  while (q->length() < 1) std::this_thread::yield();
  item_token r =
      q->xfer(empty_token, false, wait_kind::now, deadline::expired());
  p.join();
  ASSERT_NE(r, empty_token);
  EXPECT_EQ(val_of(r), 88);
}

// ---- timed vs nothing: expires; vs late peer: succeeds. ----

TEST_P(ModeMatrix, TimedProducerExpiresAlone) {
  auto t0 = steady_clock::now();
  EXPECT_EQ(q->xfer(tok_of(1), true, wait_kind::timed, short_dl()),
            empty_token);
  EXPECT_GE(steady_clock::now() - t0, std::chrono::milliseconds(20));
  EXPECT_LE(q->length(), 1u) << "cancelled node may linger at most briefly";
}

TEST_P(ModeMatrix, TimedConsumerExpiresAlone) {
  EXPECT_EQ(q->xfer(empty_token, false, wait_kind::timed, short_dl()),
            empty_token);
}

TEST_P(ModeMatrix, TimedProducerMeetsLateTimedConsumer) {
  std::thread p([&] {
    EXPECT_NE(q->xfer(tok_of(5), true, wait_kind::timed, long_dl()),
              empty_token);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  item_token r = q->xfer(empty_token, false, wait_kind::timed, long_dl());
  p.join();
  ASSERT_NE(r, empty_token);
  EXPECT_EQ(val_of(r), 5);
}

TEST_P(ModeMatrix, SyncProducerMeetsTimedConsumer) {
  std::thread c([&] {
    item_token r = q->xfer(empty_token, false, wait_kind::timed, long_dl());
    ASSERT_NE(r, empty_token);
    EXPECT_EQ(val_of(r), 9);
  });
  while (q->length() < 1) std::this_thread::yield();
  EXPECT_NE(q->xfer(tok_of(9), true, wait_kind::sync, long_dl()),
            empty_token);
  c.join();
}

// ---- async producer semantics (the queue only). ----

TEST_F(QueueAsyncModes, NowConsumerMeetsAsyncProducer) {
  EXPECT_NE(q->xfer(tok_of(3), true, wait_kind::async, deadline::unbounded()),
            empty_token);
  item_token r =
      q->xfer(empty_token, false, wait_kind::now, deadline::expired());
  ASSERT_NE(r, empty_token);
  EXPECT_EQ(val_of(r), 3);
}

TEST_F(QueueAsyncModes, AsyncProducerNeverWaits) {
  auto t0 = steady_clock::now();
  for (int i = 0; i < 200; ++i)
    EXPECT_NE(
        q->xfer(tok_of(i + 1), true, wait_kind::async, deadline::unbounded()),
        empty_token);
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_EQ(q->length(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_NE(q->xfer(empty_token, false, wait_kind::now, deadline::expired()),
              empty_token);
  EXPECT_EQ(q->length(), 0u);
}

TEST_F(QueueAsyncModes, AsyncProducerFulfillsParkedConsumer) {
  std::atomic<int> got{-1};
  std::thread c([&] {
    got.store(val_of(q->xfer(empty_token, false, wait_kind::sync, long_dl())));
  });
  while (q->length() < 1) std::this_thread::yield();
  EXPECT_NE(q->xfer(tok_of(44), true, wait_kind::async, deadline::unbounded()),
            empty_token);
  c.join();
  EXPECT_EQ(got.load(), 44);
}

TEST_F(QueueAsyncModes, TimedConsumerDrainsAsyncBacklog) {
  for (int i = 0; i < 5; ++i)
    q->xfer(tok_of(i + 1), true, wait_kind::async, deadline::unbounded());
  long sum = 0;
  for (int i = 0; i < 5; ++i)
    sum += val_of(q->xfer(empty_token, false, wait_kind::timed, long_dl()));
  EXPECT_EQ(sum, 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(q->xfer(empty_token, false, wait_kind::now, deadline::expired()),
            empty_token);
}

// ---- mixed-mode pileups keep working. ----

// On the stack, the timed producers here publish nodes that were first
// built for a lost push CAS in the other branch (fulfill vs. wait push); on
// the queue, the async producers publish nodes no owner releases. A
// private, drained hazard domain makes every node the run allocated account
// for itself: one published with the wrong life bits either leaks
// (node_alloc > node_free) or trips "double owner release".
TEST_P(ModeMatrix, MixedModeGauntlet) {
  diag::reset_all();
  // The stack has no async mode: its async share runs as timed producers.
  const wait_kind share =
      GetParam().structure == which::queue ? wait_kind::async : wait_kind::timed;
  std::atomic<long> in{0}, out{0};
  std::atomic<int> net{0};
  {
    mem::hazard_domain dom;
    auto g = make(GetParam().structure, &dom);
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < 1000; ++i) {
          int v = t * 1000 + i + 1;
          switch ((t + i) % 4) {
            case 0:
            case 2:
              if (g->xfer(tok_of(v), true,
                          (t + i) % 4 == 2 ? share : wait_kind::timed,
                          deadline::in(std::chrono::milliseconds(2))) !=
                  empty_token) {
                in.fetch_add(v);
                net.fetch_add(1);
              }
              break;
            case 1: {
              item_token r =
                  g->xfer(empty_token, false, wait_kind::timed,
                          deadline::in(std::chrono::milliseconds(2)));
              if (r != empty_token) {
                out.fetch_add(val_of(r));
                net.fetch_sub(1);
              }
              break;
            }
            default: {
              item_token r = g->xfer(empty_token, false, wait_kind::now,
                                     deadline::expired());
              if (r != empty_token) {
                out.fetch_add(val_of(r));
                net.fetch_sub(1);
              }
              break;
            }
          }
        }
      });
    }
    for (auto &t : ts) t.join();
    // Drain async leftovers.
    for (;;) {
      item_token r =
          g->xfer(empty_token, false, wait_kind::now, deadline::expired());
      if (r == empty_token) break;
      out.fetch_add(val_of(r));
      net.fetch_sub(1);
    }
    dom.drain();
  }
  EXPECT_EQ(net.load(), 0);
  EXPECT_EQ(in.load(), out.load());
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

INSTANTIATE_TEST_SUITE_P(Cores, ModeMatrix,
                         ::testing::Values(mode_param{which::queue, "Queue"},
                                           mode_param{which::stack, "Stack"}),
                         pname);
