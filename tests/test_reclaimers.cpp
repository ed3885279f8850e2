// Reclaimer-policy sweep: the full functional battery must hold for every
// (structure, reclaimer) combination, since the reclaimer is a template
// policy a downstream user can swap.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/synchronous_queue.hpp"
#include "memory/reclaim.hpp"

using namespace ssq;

template <typename Q>
class ReclaimerSweep : public ::testing::Test {};

using Combos = ::testing::Types<
    synchronous_queue<int, true, mem::hp_reclaimer>,
    synchronous_queue<int, false, mem::hp_reclaimer>,
    synchronous_queue<int, true, mem::deferred_reclaimer>,
    synchronous_queue<int, false, mem::deferred_reclaimer>,
    synchronous_queue<int, true, mem::pooled_hp_reclaimer>,
    synchronous_queue<int, false, mem::pooled_hp_reclaimer>,
    synchronous_queue<int, true, mem::pooled_deferred_reclaimer>,
    synchronous_queue<int, false, mem::pooled_deferred_reclaimer>,
    // The segmented core with heap-backed segments: under ASan, a segment
    // freed while a matched waiter still reads its cell is a use-after-free.
    synchronous_queue<int, true, mem::hp_reclaimer, core_kind::segmented>,
    synchronous_queue<int, true, mem::deferred_reclaimer, core_kind::segmented>,
    synchronous_queue<int, true, mem::pooled_hp_reclaimer,
                      core_kind::segmented>>;
TYPED_TEST_SUITE(ReclaimerSweep, Combos);

TYPED_TEST(ReclaimerSweep, PairHandoff) {
  TypeParam q;
  std::thread p([&] { q.put(3); });
  EXPECT_EQ(q.take(), 3);
  p.join();
}

TYPED_TEST(ReclaimerSweep, ManyTransfersConserve) {
  TypeParam q;
  const int n = 4000;
  std::thread p([&] {
    for (int i = 0; i < n; ++i) q.put(i);
  });
  long sum = 0;
  for (int i = 0; i < n; ++i) sum += q.take();
  p.join();
  EXPECT_EQ(sum, static_cast<long>(n - 1) * n / 2);
}

TYPED_TEST(ReclaimerSweep, TimeoutAndCancellation) {
  TypeParam q;
  EXPECT_FALSE(q.try_put(1, std::chrono::milliseconds(10)));
  EXPECT_FALSE(q.try_take(std::chrono::milliseconds(10)).has_value());
  // Still usable.
  std::thread p([&] { q.put(9); });
  EXPECT_EQ(q.take(), 9);
  p.join();
}

TYPED_TEST(ReclaimerSweep, ConcurrentConservation) {
  TypeParam q;
  const int np = 3, nc = 3, per = 1500;
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
}

TYPED_TEST(ReclaimerSweep, CancellationStormStaysBounded) {
  TypeParam q;
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 1500; ++i)
        (void)q.try_put(i, std::chrono::microseconds(20));
    });
  for (auto &t : ts) t.join();
  EXPECT_LE(q.unsafe_length(), 16u);
}

// hp-specific: quantitative reclamation via a private domain.
TEST(ReclaimerAccounting, PrivateDomainFreesEverything) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    synchronous_queue<int, true, mem::hp_reclaimer> q(
        sync::spin_policy::adaptive(), mem::hp_reclaimer{&dom});
    std::thread p([&] {
      for (int i = 0; i < 3000; ++i) q.put(i);
    });
    for (int i = 0; i < 3000; ++i) (void)q.take();
    p.join();
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(ReclaimerAccounting, HpBoundsGarbageUnderLoad) {
  mem::hazard_domain dom;
  synchronous_queue<int, false, mem::hp_reclaimer> q(
      sync::spin_policy::adaptive(), mem::hp_reclaimer{&dom});
  std::thread p([&] {
    for (int i = 0; i < 20000; ++i) q.put(i);
  });
  for (int i = 0; i < 20000; ++i) (void)q.take();
  p.join();
  // Amortized scans must keep unreclaimed garbage bounded even mid-run.
  EXPECT_LT(dom.approx_retired(), 4096u);
}

TEST(ReclaimerAccounting, PooledPrivateDomainFreesEverything) {
  // The alloc/free balance must be reclaimer-independent: pooled create and
  // retire bump the same counters as the heap policy (deleters never bump),
  // so the identity proves nodes leave the structure exactly once whether
  // they return to the heap or to a magazine.
  diag::reset_all();
  {
    mem::hazard_domain dom;
    synchronous_queue<int, true, mem::pooled_hp_reclaimer> q(
        sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    std::thread p([&] {
      for (int i = 0; i < 3000; ++i) q.put(i);
    });
    for (int i = 0; i < 3000; ++i) (void)q.take();
    p.join();
    dom.drain();
  }
  EXPECT_EQ(diag::read(diag::id::node_alloc), diag::read(diag::id::node_free));
}

TEST(ReclaimerAccounting, PooledRecyclesInSteadyState) {
  diag::reset_all();
  {
    mem::hazard_domain dom;
    synchronous_queue<int, true, mem::pooled_hp_reclaimer> q(
        sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{&dom});
    std::thread p([&] {
      for (int i = 0; i < 3000; ++i) q.put(i);
    });
    for (int i = 0; i < 3000; ++i) (void)q.take();
    p.join();
    dom.drain();
  }
  // In steady state the pool must serve allocations from recycled blocks,
  // not fresh chunks: 6000 transfers through a near-empty queue touch only
  // a handful of distinct nodes.
  EXPECT_GT(diag::read(diag::id::pool_recycle),
            diag::read(diag::id::pool_fresh));
}

TEST(ReclaimerAccounting, DeferredFreesOnlyAtDestruction) {
  diag::reset_all();
  auto before_retire = diag::read(diag::id::node_retire);
  {
    synchronous_queue<int, true, mem::deferred_reclaimer> q;
    std::thread p([&] {
      for (int i = 0; i < 500; ++i) q.put(i);
    });
    for (int i = 0; i < 500; ++i) (void)q.take();
    p.join();
    EXPECT_GT(diag::read(diag::id::node_retire), before_retire)
        << "nodes were retired to the tombstone list";
  }
  // ASan CI verifies no leak after destruction.
}
