// Tests for the reclamation layer: hazard pointers, life_cycle,
// deferred reclaimer. These validate the guarantees the dual structures
// lean on in place of Java's GC.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/synchronous_queue.hpp"
#include "memory/hazard.hpp"
#include "memory/reclaim.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;
using mem::hazard_domain;

namespace {

// A canary object that poisons itself on destruction so use-after-free is
// detectable without ASan.
struct canary {
  static constexpr std::uint64_t alive_mark = 0xA11CE5ULL;
  std::uint64_t mark = alive_mark;
  std::atomic<int> *free_count;

  explicit canary(std::atomic<int> *fc) : free_count(fc) {}
  ~canary() {
    mark = 0xDEAD;
    if (free_count) free_count->fetch_add(1);
  }
  bool alive() const { return mark == alive_mark; }
};

} // namespace

// ------------------------------------------------------------- hazard

TEST(Hazard, RetireWithoutHazardFreesOnScan) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  dom.retire(new canary(&freed));
  dom.scan();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(dom.approx_retired(), 0u);
}

TEST(Hazard, ProtectedNodeSurvivesScan) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  auto *c = new canary(&freed);
  std::atomic<canary *> shared{c};
  {
    hazard_domain::hazard hz(dom);
    canary *p = hz.protect(shared);
    ASSERT_EQ(p, c);
    dom.retire(c);
    dom.scan();
    EXPECT_EQ(freed.load(), 0) << "hazard must pin the node";
    EXPECT_TRUE(p->alive());
  }
  dom.scan();
  EXPECT_EQ(freed.load(), 1) << "released hazard frees on next scan";
}

TEST(Hazard, ProtectFollowsConcurrentUpdates) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  auto *a = new canary(&freed);
  auto *b = new canary(&freed);
  std::atomic<canary *> shared{a};
  hazard_domain::hazard hz(dom);
  canary *got = hz.protect(shared);
  EXPECT_EQ(got, a);
  shared.store(b);
  canary *got2 = hz.protect(shared);
  EXPECT_EQ(got2, b);
  delete a;
  delete b;
}

TEST(Hazard, MultipleSlotsPerThread) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  std::vector<canary *> nodes;
  std::vector<std::atomic<canary *>> cells(hazard_domain::slots_per_record);
  for (auto &cell : cells) {
    auto *c = new canary(&freed);
    nodes.push_back(c);
    cell.store(c);
  }
  {
    std::vector<std::unique_ptr<hazard_domain::hazard>> guards;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      guards.push_back(std::make_unique<hazard_domain::hazard>(dom));
      guards.back()->protect(cells[i]);
    }
    for (auto *c : nodes) dom.retire(c);
    dom.scan();
    EXPECT_EQ(freed.load(), 0);
  }
  dom.drain();
  EXPECT_EQ(freed.load(), static_cast<int>(nodes.size()));
}

TEST(Hazard, ClearReleasesProtection) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  auto *c = new canary(&freed);
  std::atomic<canary *> shared{c};
  hazard_domain::hazard hz(dom);
  hz.protect(shared);
  dom.retire(c);
  hz.clear();
  dom.scan();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Hazard, ThreadExitOrphansAreAdopted) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  std::thread t([&] {
    // Retire from a thread that exits immediately: its retirees must not be
    // stranded.
    for (int i = 0; i < 10; ++i) dom.retire(new canary(&freed));
  });
  t.join();
  dom.drain();
  EXPECT_EQ(freed.load(), 10);
}

TEST(Hazard, RecordsAreRecycledAcrossThreads) {
  hazard_domain dom;
  for (int round = 0; round < 8; ++round) {
    std::thread t([&] {
      hazard_domain::hazard hz(dom);
      std::atomic<int *> dummy{nullptr};
      hz.protect(dummy);
    });
    t.join();
  }
  // Sequential threads reuse the released record instead of growing the
  // list without bound.
  EXPECT_LE(dom.record_count(), 2u);
}

namespace {

synchronous_queue<int, false> late_queue;
std::atomic<int> late_done{0};

// Constructed before the thread's first queue call, so its destructor runs
// after the hazard domain's per-thread record cache is destroyed.
struct late_offerer {
  ~late_offerer() {
    (void)late_queue.offer(1);
    late_done.fetch_add(1);
  }
  void touch() noexcept {}
};

} // namespace

TEST(Hazard, QueueUseFromLateThreadLocalDestructor) {
  std::atomic<bool> stop{false};
  std::thread taker([&] {
    while (!stop.load())
      (void)late_queue.poll(deadline::in(std::chrono::microseconds(50)));
  });
  const std::size_t records_before = hazard_domain::global().record_count();
  for (int i = 0; i < 200; ++i) {
    std::thread([] {
      thread_local late_offerer late;
      late.touch();
      (void)late_queue.offer(0);
    }).join();
  }
  stop.store(true);
  taker.join();
  EXPECT_EQ(late_done.load(), 200) << "every late offer must return";
  // The taker's record and one offer's worth of guards, however many
  // threads came and went: late guards hand their records back.
  EXPECT_LE(hazard_domain::global().record_count(), records_before + 8);
}

TEST(Hazard, ExternalRootPinsItsTarget) {
  hazard_domain dom;
  std::atomic<int> freed{0};
  auto *c = new canary(&freed);
  std::atomic<void *> root{c};
  dom.add_root(&root);
  dom.retire(c);
  dom.scan();
  EXPECT_EQ(freed.load(), 0) << "root-referenced node must survive";
  root.store(nullptr);
  dom.scan();
  EXPECT_EQ(freed.load(), 1);
  dom.remove_root(&root);
}

TEST(Hazard, GarbageIsBounded) {
  // The amortized threshold must keep unreclaimed garbage bounded even
  // under sustained retirement with no manual scans.
  hazard_domain dom;
  std::atomic<int> freed{0};
  for (int i = 0; i < 100000; ++i) dom.retire(new canary(&freed));
  EXPECT_LT(dom.approx_retired(), 5000u);
  dom.drain();
  EXPECT_EQ(freed.load(), 100000);
}

TEST(Hazard, ApproxRetiredCountsEveryHolder) {
  // Once the domain is quiescent the count is exact, wherever the retirees
  // wait: in the calling thread's record or on the orphan list.
  hazard_domain dom;
  std::atomic<int> freed{0};
  auto *pinned = new canary(&freed);
  std::atomic<canary *> shared{pinned};
  hazard_domain::hazard hz(dom);
  hz.protect(shared);
  dom.retire(pinned);
  // 10 retires in all: under the 64-retire threshold, so nothing scans.
  for (int i = 0; i < 9; ++i) dom.retire(new canary(&freed));
  EXPECT_EQ(dom.approx_retired(), 10u);
  dom.scan();
  EXPECT_EQ(dom.approx_retired(), 1u) << "the pinned node is still pending";

  std::thread t([&] {
    for (int i = 0; i < 5; ++i) dom.retire(new canary(&freed));
  });
  t.join();
  EXPECT_EQ(dom.approx_retired(), 6u) << "an exited thread's orphans count";

  hz.clear();
  dom.drain();
  EXPECT_EQ(dom.approx_retired(), 0u);
  EXPECT_EQ(freed.load(), 15);
}

TEST(Hazard, ConcurrentStress) {
  // Readers chase a shared pointer under hazard while writers swap and
  // retire; canaries must never be observed dead while protected.
  hazard_domain dom;
  std::atomic<int> freed{0};
  std::atomic<canary *> shared{new canary(&freed)};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        hazard_domain::hazard hz(dom);
        canary *p = hz.protect(shared);
        if (p && !p->alive()) violations.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      auto *fresh = new canary(&freed);
      canary *old = shared.exchange(fresh);
      dom.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto &t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  dom.retire(shared.load());
  dom.drain();
  EXPECT_EQ(freed.load(), 20001);
}

// ------------------------------------------------------------- life_cycle

TEST(LifeCycle, UnlinkThenReleaseRetiresOnce) {
  mem::life_cycle lc;
  EXPECT_FALSE(lc.mark_unlinked()) << "owner not yet done";
  EXPECT_TRUE(lc.mark_released()) << "second party retires";
}

TEST(LifeCycle, ReleaseThenUnlinkRetiresOnce) {
  mem::life_cycle lc;
  EXPECT_FALSE(lc.mark_released());
  EXPECT_TRUE(lc.mark_unlinked());
}

TEST(LifeCycle, DoubleUnlinkIsIdempotent) {
  mem::life_cycle lc;
  EXPECT_FALSE(lc.mark_released());
  EXPECT_TRUE(lc.mark_unlinked());
  EXPECT_FALSE(lc.mark_unlinked()) << "second unlinker must not retire again";
}

TEST(LifeCycle, PresetReleasedLeavesOnlyUnlink) {
  mem::life_cycle lc;
  lc.preset_released();
  EXPECT_TRUE(lc.mark_unlinked());
}

TEST(LifeCycle, ExactlyOneRetirerUnderRace) {
  for (int round = 0; round < 2000; ++round) {
    mem::life_cycle lc;
    std::atomic<int> retires{0};
    std::thread a([&] {
      if (lc.mark_unlinked()) retires.fetch_add(1);
    });
    std::thread b([&] {
      if (lc.mark_released()) retires.fetch_add(1);
    });
    a.join();
    b.join();
    ASSERT_EQ(retires.load(), 1);
  }
}

// ------------------------------------------------------------- deferred

TEST(Deferred, FreesEverythingAtDestruction) {
  std::atomic<int> freed{0};
  {
    mem::deferred_reclaimer rec;
    for (int i = 0; i < 100; ++i) rec.retire(new canary(&freed));
    EXPECT_EQ(freed.load(), 0) << "deferred means deferred";
  }
  EXPECT_EQ(freed.load(), 100);
}

TEST(Deferred, SlotProtectIsAPlainRead) {
  mem::deferred_reclaimer rec;
  std::atomic<int *> cell{nullptr};
  int x = 5;
  cell.store(&x);
  mem::deferred_reclaimer::slot s(rec);
  EXPECT_EQ(s.protect(cell), &x);
}

TEST(Deferred, ConcurrentRetire) {
  std::atomic<int> freed{0};
  {
    mem::deferred_reclaimer rec;
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t)
      ts.emplace_back([&] {
        for (int i = 0; i < 5000; ++i) rec.retire(new canary(&freed));
      });
    for (auto &t : ts) t.join();
  }
  EXPECT_EQ(freed.load(), 20000);
}
