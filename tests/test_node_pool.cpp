// node_pool unit tests: recycling behavior, alignment, the bounded overflow
// ring, the thread-exit orphan protocol, and the pool's interleaving with
// hazard-pointer scans (the ASan CI target).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/transfer_queue.hpp"
#include "memory/hazard.hpp"
#include "memory/node_pool.hpp"
#include "memory/reclaim.hpp"
#include "support/codec.hpp"

using namespace ssq;
using mem::node_pool;

namespace {

node_pool::config small_cfg() {
  node_pool::config c{/*block_size=*/64};
  c.magazine_cap = 8;
  c.ring_cap = 16;
  c.chunk_blocks = 4;
  return c;
}

item_token tok_of(std::uintptr_t v) {
  return reinterpret_cast<item_token>(v << 2); // distinct from empty_token
}

} // namespace

TEST(NodePool, MagazineIsLifo) {
  node_pool pool(small_cfg());
  void *a = pool.allocate();
  void *b = pool.allocate();
  ASSERT_NE(a, b);
  pool.deallocate(a);
  pool.deallocate(b);
  // The most recently freed block (still cache-warm) comes back first.
  EXPECT_EQ(pool.allocate(), b);
  EXPECT_EQ(pool.allocate(), a);
  pool.deallocate(a);
  pool.deallocate(b);
}

TEST(NodePool, BlocksAreCachelineAligned) {
  node_pool pool(small_cfg());
  EXPECT_GE(pool.stride(), std::size_t{64});
  EXPECT_EQ(pool.stride() % cacheline_size, 0u);
  std::vector<void *> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(pool.allocate());
  std::set<void *> distinct(blocks.begin(), blocks.end());
  EXPECT_EQ(distinct.size(), blocks.size());
  for (void *p : blocks)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % cacheline_size, 0u)
        << "block not cache-line aligned";
  for (void *p : blocks) pool.deallocate(p);
}

TEST(NodePool, CrossThreadRecyclingReusesChunks) {
  node_pool pool(small_cfg());
  std::vector<void *> blocks;
  for (int i = 0; i < 12; ++i) blocks.push_back(pool.allocate());
  const std::size_t chunks_before = pool.chunk_count();
  ASSERT_GT(chunks_before, 0u);

  // Free every block on another thread (consumer-retires-producer's-nodes
  // pattern); its magazine flushes to the shared side at thread exit.
  std::thread t([&] {
    for (void *p : blocks) pool.deallocate(p);
  });
  t.join();

  // Re-allocating must be satisfied from recycled blocks, not new chunks.
  std::set<void *> seen(blocks.begin(), blocks.end());
  std::vector<void *> again;
  for (int i = 0; i < 12; ++i) again.push_back(pool.allocate());
  EXPECT_EQ(pool.chunk_count(), chunks_before);
  for (void *p : again) EXPECT_TRUE(seen.count(p)) << "expected a recycled block";
  for (void *p : again) pool.deallocate(p);
}

TEST(NodePool, OverflowRingIsBoundedAndSpillsToOrphans) {
  node_pool::config c{/*block_size=*/64};
  c.magazine_cap = 4;
  c.ring_cap = 4; // tiny: force overflow
  c.chunk_blocks = 8;
  node_pool pool(c);

  const std::size_t cap = pool.ring_capacity();
  std::vector<void *> blocks;
  for (std::size_t i = 0; i < 3 * cap; ++i) blocks.push_back(pool.allocate());
  // Remote-free everything (carve leftovers may already sit in the ring):
  // the ring must stay at capacity and the excess must land in the orphan
  // list instead of growing the ring.
  const std::size_t shared_before = pool.ring_size() + pool.orphan_count();
  for (void *p : blocks) pool.deallocate_remote(p);
  EXPECT_LE(pool.ring_size(), cap);
  EXPECT_EQ(pool.ring_size() + pool.orphan_count(),
            shared_before + blocks.size());

  // And every one of them is adoptable again: re-allocating the same count
  // must not carve new chunks.
  const std::size_t chunks_before = pool.chunk_count();
  for (std::size_t i = 0; i < blocks.size(); ++i) (void)pool.allocate();
  EXPECT_EQ(pool.chunk_count(), chunks_before);
}

TEST(NodePool, ThreadExitFlushesMagazinesForAdoption) {
  node_pool pool(small_cfg());
  std::set<void *> freed_by_thread;
  std::thread t([&] {
    // Allocate and free entirely within the thread: the blocks end up in
    // the thread's magazine, which must not die with the thread.
    std::vector<void *> mine;
    for (int i = 0; i < 6; ++i) mine.push_back(pool.allocate());
    for (void *p : mine) {
      freed_by_thread.insert(p);
      pool.deallocate(p);
    }
  });
  t.join();

  // The exited thread's blocks are now in the ring/orphan list; this
  // thread's allocations adopt them before carving anything new.
  const std::size_t chunks_before = pool.chunk_count();
  std::vector<void *> got;
  bool adopted = false;
  for (int i = 0; i < 6; ++i) {
    void *p = pool.allocate();
    if (freed_by_thread.count(p)) adopted = true;
    got.push_back(p);
  }
  EXPECT_TRUE(adopted) << "no block from the exited thread was recycled";
  EXPECT_EQ(pool.chunk_count(), chunks_before);
  for (void *p : got) pool.deallocate(p);
}

namespace {
struct node64 {
  unsigned char bytes[64];
};

// Frees its block through the pooled deleter from a thread_local
// destructor that runs after the thread's pool cache is torn down.
struct late_free {
  void *block = nullptr;
  ~late_free() {
    if (block) mem::pooled_node_alloc::deleter<node64>()(block);
  }
};
} // namespace

TEST(NodePool, GlobalPoolsAreSharedPerSizeClass) {
  node_pool &a = node_pool::global_for(64, 64);
  node_pool &b = node_pool::global_for(64, 64);
  node_pool &c = node_pool::global_for(128, 64);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(&mem::pooled_node_alloc::pool<node64>(), &a);

  void *p = a.allocate();
  mem::pooled_node_alloc::deleter<node64>()(p);
  EXPECT_EQ(a.allocate(), p); // routed back into the same class, LIFO
  a.deallocate(p);
}

TEST(NodePool, DeleterWorksAfterTheThreadCacheIsGone) {
  node_pool &a = mem::pooled_node_alloc::pool<node64>();
  std::size_t shared_before = 0, flushed = 0;
  std::thread t([&] {
    thread_local late_free lf; // constructed before the pool cache
    lf.block = a.allocate();
    flushed = a.magazine_size();
    shared_before = a.ring_size() + a.orphan_count();
  });
  t.join();
  // At exit the cache flushes its magazine, then the late deleter takes
  // the remote path: both land on the shared side.
  EXPECT_EQ(a.ring_size() + a.orphan_count(), shared_before + flushed + 1);
}

TEST(NodePool, ThreadChurnManyShortLivedThreads) {
  // Regression target for the orphan protocol under thread churn: every
  // thread leaves blocks behind; footprint must stay bounded by reuse.
  node_pool pool(small_cfg());
  for (int round = 0; round < 16; ++round) {
    std::thread t([&] {
      std::vector<void *> mine;
      for (int i = 0; i < 8; ++i) mine.push_back(pool.allocate());
      for (void *p : mine) pool.deallocate(p);
    });
    t.join();
  }
  // 16 threads x 8 live blocks each, all serialized: a handful of chunks
  // (first thread's carves) must have satisfied everyone.
  EXPECT_LE(pool.chunk_count(), 4u);
}

// The ASan CI target: pooled reclamation interleaved with explicit hazard
// scans. A block must only re-enter circulation via the reclaimer's deleter
// (post-scan); a premature recycle is a use-after-free ASan would flag.
TEST(NodePool, PooledReclaimerInterleavedWithDrain) {
  mem::hazard_domain dom;
  {
    transfer_queue<> q(sync::spin_policy::adaptive(),
                       mem::pooled_hp_reclaimer{&dom});
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
      while (!stop.load(std::memory_order_acquire)) dom.drain();
    });
    std::thread producer([&] {
      for (std::uintptr_t i = 1; i <= 2000; ++i)
        (void)q.xfer(tok_of(i), true, wait_kind::sync);
    });
    for (int i = 0; i < 2000; ++i)
      (void)q.xfer(empty_token, false, wait_kind::sync);
    producer.join();
    stop.store(true, std::memory_order_release);
    drainer.join();
    dom.drain();
  }
}
