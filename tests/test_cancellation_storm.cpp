// Adversarial cancellation storms -- the workload class that exposed the
// stale-predecessor splice bug fixed by the freeze-before-unlink protocol
// (docs/algorithms.md §4.1 Rule 3). These tests run the pattern hard, in
// both directions, on both structures, and verify full reclamation
// afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/segment_queue.hpp"
#include "core/synchronous_queue.hpp"
#include "core/transfer_queue.hpp"
#include "core/transfer_stack.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;

namespace {

item_token tok_of(int v) { return item_codec<int>::encode(v); }

// Hammer a structure with micro-patience timed ops from both sides plus a
// trickle of real traffic; conservation and reclamation must survive.
template <typename Core>
void storm(Core &core, int threads, int iters) {
  std::atomic<long> in{0}, out{0};
  std::atomic<int> net{0}; // successful puts minus successful takes
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        if ((t + i) % 2 == 0) {
          int v = t * iters + i + 1;
          item_token tk = tok_of(v);
          item_token r =
              core.xfer(tk, true, wait_kind::timed,
                        deadline::in(std::chrono::microseconds(15 + i % 40)));
          if (r != empty_token) {
            in.fetch_add(v);
            net.fetch_add(1);
          }
        } else {
          item_token r =
              core.xfer(empty_token, false, wait_kind::timed,
                        deadline::in(std::chrono::microseconds(15 + i % 40)));
          if (r != empty_token) {
            out.fetch_add(item_codec<int>::decode_consume(r));
            net.fetch_sub(1);
          }
        }
      }
    });
  }
  for (auto &t : ts) t.join();
  // Every successful put paired with exactly one successful take.
  EXPECT_EQ(net.load(), 0);
  EXPECT_EQ(in.load(), out.load());
  EXPECT_LE(core.unsafe_length(), 32u) << "cancelled-node buildup";
}

} // namespace

TEST(CancellationStorm, QueueBothDirections) {
  transfer_queue<> q;
  storm(q, 6, 4000);
}

TEST(CancellationStorm, StackBothDirections) {
  transfer_stack<> s;
  storm(s, 6, 4000);
}

TEST(CancellationStorm, QueueRepeatedRounds) {
  // Fresh queue per round: exercises construction/teardown interleaved
  // with domain reuse (the uid-guarded thread caches).
  for (int round = 0; round < 5; ++round) {
    transfer_queue<> q;
    storm(q, 4, 1500);
  }
}

TEST(CancellationStorm, StackRepeatedRounds) {
  for (int round = 0; round < 5; ++round) {
    transfer_stack<> s;
    storm(s, 4, 1500);
  }
}

TEST(CancellationStorm, QueueFullReclamation) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_queue<> q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    storm(q, 4, 3000);
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(CancellationStorm, StackFullReclamation) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    transfer_stack<> s(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    storm(s, 4, 3000);
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

// ---------------------------------------------------------------------------
// Segmented core (core/segment_queue.hpp). Cancellation here is cell
// poisoning, not list splicing: a timed op that gives up CASes its cell
// WAITER -> POISONED and walks away in O(1). The storms check the same
// invariants as the linked cores -- no lost wakeups (net == 0), no value
// corruption (in == out) -- plus segment-granular reclamation: every
// poison-riddled segment still reaches done == contributions and is
// retired exactly once.
// ---------------------------------------------------------------------------

TEST(CancellationStorm, SegmentedBothDirections) {
  segment_queue<> q;
  storm(q, 6, 4000);
}

TEST(CancellationStorm, SegmentedRepeatedRounds) {
  for (int round = 0; round < 5; ++round) {
    segment_queue<> q;
    storm(q, 4, 1500);
  }
}

TEST(CancellationStorm, SegmentedFullReclamation) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    segment_queue<> q(sync::spin_policy::adaptive(),
                      mem::pooled_hp_reclaimer{&dom});
    storm(q, 4, 3000);
    dom.drain();
    // The storm's micro-patience waits must actually have poisoned cells
    // (otherwise this test exercises nothing) and the poisoning must have
    // let whole segments retire through the reclaimer seam.
    EXPECT_GT(diag::read(diag::id::cell_poison), 0u);
    EXPECT_GT(diag::read(diag::id::seg_retire), 0u);
  }
  // Queue destroyed: the still-linked suffix was freed in the dtor, so
  // every allocated segment is accounted for -- none leaked behind a
  // poisoned cell that failed to contribute.
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
  // Retired segments are a strict subset of linked-in ones: the live tail
  // (at least the current head) is freed by the dtor, never retired.
  EXPECT_LT(diag::read(diag::id::seg_retire), diag::read(diag::id::seg_alloc));
}

TEST(CancellationStorm, FacadeSurvivesInterruptStorm) {
  // Interrupt-heavy variant through the typed facade. A token stays set once
  // interrupted, so each interrupt fires a token of its own: worker k % 4
  // waits under token k until the interrupter fires it, then under k + 4.
  synchronous_queue<int, true> q;
  constexpr int kInterrupts = 300;
  std::vector<sync::interrupt_token> toks(kInterrupts);
  std::atomic<int> live[4] = {0, 1, 2, 3}; // each worker's current token
  std::atomic<bool> stop{false};

  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&, i] {
      while (!stop.load(std::memory_order_acquire)) {
        sync::interrupt_token *tok =
            &toks[static_cast<std::size_t>(live[i].load())];
        if (i % 2)
          (void)q.try_put(i, deadline::in(std::chrono::milliseconds(5)), tok);
        else
          (void)q.try_take(deadline::in(std::chrono::milliseconds(5)), tok);
      }
    });
  }
  std::thread interrupter([&] {
    for (int k = 0; k < kInterrupts; ++k) {
      toks[static_cast<std::size_t>(k)].interrupt();
      if (k + 4 < kInterrupts) live[k % 4].store(k + 4);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    stop.store(true, std::memory_order_release);
  });
  interrupter.join();
  for (auto &t : ts) t.join();
  // Queue still functional.
  std::thread p([&] { q.put(42); });
  EXPECT_EQ(q.take(), 42);
  p.join();
}
