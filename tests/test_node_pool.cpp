// node_pool unit tests: recycling behavior, alignment, the depot's traffic
// between threads, the thread-exit flush, poisoning of depot blocks, and the
// pool's interleaving with hazard-pointer scans (the ASan CI target).
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

// Each test takes the global pool of a block size no other code uses, so it
// starts from a fresh size class. Blocks of 1 KiB or more get an 8-block
// magazine and 4-block chunks; smaller ones 64 and 32.
node_pool &fresh_pool(std::size_t size) {
  return node_pool::global_for(size, cacheline_size);
}

item_token tok_of(std::uintptr_t v) {
  return reinterpret_cast<item_token>(v << 2); // distinct from empty_token
}

} // namespace

TEST(NodePool, MagazineIsLifo) {
  node_pool &pool = fresh_pool(1025);
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
  node_pool &pool = fresh_pool(201);
  EXPECT_GE(pool.stride(), std::size_t{201});
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
  node_pool &pool = fresh_pool(1026);
  std::vector<void *> blocks;
  for (int i = 0; i < 12; ++i) blocks.push_back(pool.allocate());
  const std::size_t chunks_before = pool.chunk_count();
  ASSERT_GT(chunks_before, 0u);

  // Free every block on another thread (consumer-retires-producer's-nodes
  // pattern); its magazine flushes to the depot at thread exit.
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

// fanin's box flow: one thread allocates every block and hands it to a
// second thread, which frees it. The consumer's magazine spills reach the
// producer through the depot. After the warm-up the pool holds 256 blocks,
// and a carve needs the producer's magazine and the depot both empty, that
// is every block with the consumer: at most 64 in its magazine, one in its
// hand and one in the slot. So the steady flow carves no chunk.
TEST(NodePool, CrossThreadFlowCarvesNoChunksInSteadyState) {
  node_pool &pool = fresh_pool(202);
  constexpr int kWarm = 256; // four magazines of this class
  constexpr int kSteady = 100000;
  std::atomic<void *> slot{nullptr};
  std::thread consumer([&] {
    for (int i = 0; i < kWarm + kSteady; ++i) {
      void *p;
      while (!(p = slot.exchange(nullptr))) std::this_thread::yield();
      pool.deallocate(p);
    }
  });
  auto hand_over = [&](void *p) {
    while (slot.load() != nullptr) std::this_thread::yield();
    slot.store(p);
  };

  std::vector<void *> warm;
  for (int i = 0; i < kWarm; ++i) warm.push_back(pool.allocate());
  const std::size_t chunks = pool.chunk_count();
  for (void *p : warm) hand_over(p);
  for (int i = 0; i < kSteady; ++i) hand_over(pool.allocate());
  consumer.join();
  EXPECT_EQ(pool.chunk_count(), chunks);
}

TEST(NodePool, ThreadExitFlushesMagazinesForAdoption) {
  node_pool &pool = fresh_pool(1027);
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

  // The exited thread's blocks are now in the depot; this thread's
  // allocations adopt them before carving anything new.
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
struct late_node {
  unsigned char bytes[1028];
};

// Frees its block through the pooled deleter from a thread_local
// destructor that runs after the thread's pool cache is torn down.
struct late_free {
  void *block = nullptr;
  ~late_free() {
    if (block) mem::pooled_node_alloc::deleter<late_node>()(block);
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
  node_pool &a = mem::pooled_node_alloc::pool<late_node>();
  std::size_t depot_before = 0, flushed = 0;
  std::thread t([&] {
    thread_local late_free lf; // constructed before the pool cache
    lf.block = a.allocate();
    flushed = a.magazine_size();
    depot_before = a.depot_size();
  });
  t.join();
  // At exit the cache flushes its magazine, then the late deleter frees
  // straight into the depot: both land there.
  EXPECT_EQ(a.depot_size(), depot_before + flushed + 1);
}

TEST(NodePool, ThreadChurnManyShortLivedThreads) {
  // Regression target for the thread-exit flush under thread churn: every
  // thread leaves blocks behind; footprint must stay bounded by reuse.
  node_pool &pool = fresh_pool(1029);
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

// A block that an exited thread flushed into the depot stays poisoned
// there, so reading it reports use-after-poison.
TEST(NodePoolDeathTest, DepotBlockIsPoisoned) {
#if defined(__SANITIZE_ADDRESS__)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  node_pool &pool = fresh_pool(1030);
  EXPECT_DEATH(
      {
        void *p = nullptr;
        std::thread t([&] { pool.deallocate(p = pool.allocate()); });
        t.join();
        volatile unsigned char stale = *static_cast<volatile unsigned char *>(p);
        (void)stale;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "pool blocks are poisoned only under AddressSanitizer";
#endif
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
