#include "memory/node_pool.hpp"

#include <algorithm>
#include <mutex>
#include <new>
#include <unordered_map>

#include "support/diagnostics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
// A free block is poisoned; allocate() unpoisons the one it hands out.
#define SSQ_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define SSQ_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define SSQ_POOL_POISON(p, n)
#define SSQ_POOL_UNPOISON(p, n)
#endif

namespace ssq::mem {

namespace {

std::size_t round_up(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

std::size_t pow2_at_least(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t next_pool_uid() {
  static std::atomic<std::uint64_t> seq{1};
  return seq.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry. Two jobs, two mutexes (so pool construction under the class
// lock cannot self-deadlock on registration):
//   * live map      -- pool address -> uid, consulted before any cache
//                      eviction or magazine flush dereferences a pool that
//                      may have been destroyed (same pattern, and same
//                      reason, as hazard.cpp's domain registry);
//   * size classes  -- the global per-(size, align) pools handed out by
//                      global_for.
// The registry itself is heap-allocated and never destroyed: hazard scans
// running during static teardown may still free pooled nodes, and they must
// be able to find the owning pool. The global pools and their chunks stay
// reachable from here, so leak checkers report them as live, not leaked.
// ---------------------------------------------------------------------------

struct pool_registry {
  std::mutex live_mu;
  std::unordered_map<const node_pool *, std::uint64_t> live;

  struct klass {
    std::size_t size;
    std::size_t align;
    node_pool *pool;
  };
  std::mutex classes_mu;
  std::vector<klass> classes;
};

pool_registry &registry() {
  static pool_registry *r = new pool_registry; // immortal, see above
  return *r;
}

} // namespace

struct node_pool::orphanage {
  std::mutex mu;
  std::vector<void *> blocks;
};

// ---------------------------------------------------------------------------
// Per-thread magazine cache.
// ---------------------------------------------------------------------------

struct node_pool::tl_cache {
  struct entry {
    node_pool *pool;
    std::uint64_t uid;
    std::vector<void *> blocks; // the magazine: LIFO, pop_back/push_back
  };
  // A thread rarely touches more than a couple of pools; linear scan wins.
  std::vector<entry> entries;

  entry &get(node_pool *p) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->pool == p) {
        if (it->uid == p->uid()) return *it;
        // Same address, different pool: the old one is gone; its blocks
        // were freed with its chunks.
        entries.erase(it);
        break;
      }
    }
    entries.push_back({p, p->uid(), {}});
    entries.back().blocks.reserve(p->magazine_cap());
    return entries.back();
  }

  const entry *find(const node_pool *p) const noexcept {
    for (const auto &e : entries)
      if (e.pool == p && e.uid == p->uid()) return &e;
    return nullptr;
  }

  // Thread exit: flush every magazine back into its (still live) pool so
  // the blocks are adoptable by other threads -- the orphan protocol.
  ~tl_cache() {
    auto &reg = registry();
    std::lock_guard<std::mutex> lk(reg.live_mu);
    for (auto &e : entries) {
      auto it = reg.live.find(e.pool);
      if (it == reg.live.end() || it->second != e.uid) continue;
      for (void *p : e.blocks) e.pool->deallocate_remote(p);
    }
  }
};

namespace {

// Thread-local cache access that stays safe through thread teardown. The
// slot itself is a trivially-destructible thread_local (never torn down, so
// reading it late is fine); the owner is a separate thread_local whose
// destructor flushes the cache and marks the slot dead. After that point
// try_cache() returns nullptr and callers fall back to the remote paths.
struct tl_slot {
  node_pool::tl_cache *cache;
  bool dead;
};
thread_local tl_slot g_slot; // trivial: zero-init, no registered destructor

struct tl_owner {
  ~tl_owner() {
    node_pool::tl_cache *c = g_slot.cache;
    g_slot.cache = nullptr;
    g_slot.dead = true;
    delete c;
  }
  void touch() noexcept {}
};
thread_local tl_owner g_owner;

node_pool::tl_cache *try_cache() {
  if (g_slot.dead) return nullptr;
  if (!g_slot.cache) {
    g_owner.touch(); // force construction so the flush destructor registers
    g_slot.cache = new node_pool::tl_cache;
  }
  return g_slot.cache;
}

} // namespace

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

node_pool::node_pool(const config &c)
    : stride_(round_up(std::max(c.block_size, sizeof(chunk)),
                       std::max(c.block_align, sizeof(void *)))),
      align_(std::max(c.block_align, sizeof(void *))),
      magazine_cap_(std::max<std::size_t>(c.magazine_cap, 4)),
      chunk_blocks_(std::max<std::size_t>(c.chunk_blocks, 1)),
      uid_(next_pool_uid()),
      ring_mask_(pow2_at_least(std::max<std::size_t>(c.ring_cap, 2)) - 1),
      ring_(new ring_cell[ring_mask_ + 1]), orphans_(new orphanage) {
  for (std::size_t i = 0; i <= ring_mask_; ++i)
    ring_[i].seq.store(i, std::memory_order_relaxed);
  auto &reg = registry();
  std::lock_guard<std::mutex> lk(reg.live_mu);
  reg.live.emplace(this, uid_);
}

node_pool::~node_pool() {
  {
    auto &reg = registry();
    std::lock_guard<std::mutex> lk(reg.live_mu);
    reg.live.erase(this);
  }
  chunk *c = chunks_.load(std::memory_order_acquire);
  while (c) {
    chunk *next = c->next;
    SSQ_POOL_UNPOISON(c, stride_ * (chunk_blocks_ + 1));
    ::operator delete(static_cast<void *>(c), std::align_val_t(align_));
    c = next;
  }
  delete orphans_;
}

// ---------------------------------------------------------------------------
// The bounded MPMC overflow ring (Vyukov sequence scheme).
// ---------------------------------------------------------------------------

bool node_pool::ring_push(void *p) noexcept {
  std::size_t pos = ring_tail_.load(std::memory_order_relaxed);
  for (;;) {
    ring_cell &c = ring_[pos & ring_mask_];
    std::size_t seq = c.seq.load(std::memory_order_acquire);
    auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (ring_tail_.compare_exchange_weak(pos, pos + 1,
                                           std::memory_order_relaxed)) {
        c.ptr = p;
        c.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false; // full
    } else {
      pos = ring_tail_.load(std::memory_order_relaxed);
    }
  }
}

void *node_pool::ring_pop() noexcept {
  std::size_t pos = ring_head_.load(std::memory_order_relaxed);
  for (;;) {
    ring_cell &c = ring_[pos & ring_mask_];
    std::size_t seq = c.seq.load(std::memory_order_acquire);
    auto dif = static_cast<std::intptr_t>(seq) -
               static_cast<std::intptr_t>(pos + 1);
    if (dif == 0) {
      if (ring_head_.compare_exchange_weak(pos, pos + 1,
                                           std::memory_order_relaxed)) {
        void *p = c.ptr;
        c.seq.store(pos + ring_mask_ + 1, std::memory_order_release);
        return p;
      }
    } else if (dif < 0) {
      return nullptr; // empty
    } else {
      pos = ring_head_.load(std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation paths.
// ---------------------------------------------------------------------------

void *node_pool::refill(std::vector<void *> *mag) noexcept {
  void *first = ring_pop();
  if (first) {
    if (mag) {
      // Batch: one magazine miss amortizes up to half a magazine of ring
      // traffic.
      for (std::size_t i = 1; i < magazine_cap_ / 2; ++i) {
        void *p = ring_pop();
        if (!p) break;
        mag->push_back(p);
      }
    }
    return first;
  }
  // Adopt orphans (exited threads' magazines, ring-overflow spill).
  std::lock_guard<std::mutex> lk(orphans_->mu);
  auto &ob = orphans_->blocks;
  if (ob.empty()) return nullptr;
  first = ob.back();
  ob.pop_back();
  if (mag) {
    std::size_t take = std::min(ob.size(), magazine_cap_ / 2);
    for (std::size_t i = 0; i < take; ++i) {
      mag->push_back(ob.back());
      ob.pop_back();
    }
  }
  return first;
}

void *node_pool::carve_chunk(std::vector<void *> *mag) {
  char *raw = static_cast<char *>(
      ::operator new(stride_ * (chunk_blocks_ + 1), std::align_val_t(align_)));
  // The header occupies one full stride so every block keeps the alignment.
  auto *c = ::new (raw) chunk{nullptr};
  chunk *h = chunks_.load(std::memory_order_acquire);
  do {
    c->next = h;
  } while (!chunks_.compare_exchange_weak(h, c, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
  nchunks_.fetch_add(1, std::memory_order_relaxed);

  for (std::size_t i = 1; i < chunk_blocks_; ++i) {
    void *b = raw + stride_ * i;
    if (mag && mag->size() < magazine_cap_) {
      SSQ_POOL_POISON(b, stride_);
      mag->push_back(b);
    } else {
      deallocate_remote(b);
    }
  }
  return raw + stride_ * chunk_blocks_;
}

void *node_pool::allocate() {
  tl_cache *c = try_cache();
  if (c) {
    tl_cache::entry &e = c->get(this);
    if (!e.blocks.empty()) {
      void *p = e.blocks.back(); // LIFO: the cache-warmest block
      e.blocks.pop_back();
      diag::bump(diag::id::pool_recycle);
      SSQ_POOL_UNPOISON(p, stride_);
      return p;
    }
    if (void *p = refill(&e.blocks)) {
      diag::bump(diag::id::pool_recycle);
      SSQ_POOL_UNPOISON(p, stride_);
      return p;
    }
    diag::bump(diag::id::pool_fresh);
    return carve_chunk(&e.blocks);
  }
  // Thread-teardown fallback: no magazine to fill.
  if (void *p = refill(nullptr)) {
    diag::bump(diag::id::pool_recycle);
    SSQ_POOL_UNPOISON(p, stride_);
    return p;
  }
  diag::bump(diag::id::pool_fresh);
  return carve_chunk(nullptr);
}

void node_pool::deallocate(void *p) noexcept {
  tl_cache *c = try_cache();
  if (!c) {
    deallocate_remote(p);
    return;
  }
  tl_cache::entry &e = c->get(this);
  if (e.blocks.size() >= magazine_cap_) {
    // Spill half to the shared side so blocks freed here can feed threads
    // that only allocate.
    for (std::size_t i = 0; i < magazine_cap_ / 2; ++i) {
      deallocate_remote(e.blocks.back());
      e.blocks.pop_back();
    }
  }
  SSQ_POOL_POISON(p, stride_);
  e.blocks.push_back(p);
}

void node_pool::deallocate_remote(void *p) noexcept {
  SSQ_POOL_POISON(p, stride_);
  if (ring_push(p)) return;
  std::lock_guard<std::mutex> lk(orphans_->mu);
  orphans_->blocks.push_back(p);
}

// ---------------------------------------------------------------------------
// Observers.
// ---------------------------------------------------------------------------

std::size_t node_pool::ring_size() const noexcept {
  std::size_t t = ring_tail_.load(std::memory_order_acquire);
  std::size_t h = ring_head_.load(std::memory_order_acquire);
  return t >= h ? t - h : 0;
}

std::size_t node_pool::orphan_count() const {
  std::lock_guard<std::mutex> lk(orphans_->mu);
  return orphans_->blocks.size();
}

std::size_t node_pool::magazine_size() const noexcept {
  tl_cache *c = try_cache();
  if (!c) return 0;
  const tl_cache::entry *e = c->find(this);
  return e ? e->blocks.size() : 0;
}

// ---------------------------------------------------------------------------
// Global size-class pools.
// ---------------------------------------------------------------------------

node_pool &node_pool::global_for(std::size_t size, std::size_t align) {
  auto &reg = registry();
  node_pool *pool = nullptr;
  {
    std::lock_guard<std::mutex> lk(reg.classes_mu);
    for (const auto &k : reg.classes)
      if (k.size == size && k.align == align) {
        pool = k.pool;
        break;
      }
    if (!pool) {
      config cfg;
      cfg.block_size = size;
      cfg.block_align = align;
      if (size >= 1024) {
        // Large-block class (waiter-cell segments are ~4 KiB each). The
        // default caps are tuned for 64-128 byte qnodes; holding 64
        // magazine slots plus a 1024-deep ring of 4 KiB blocks would pin
        // megabytes per thread. Shrink every tier and carve small chunks.
        cfg.magazine_cap = 8;
        cfg.ring_cap = 64;
        cfg.chunk_blocks = 4;
      }
      pool = new node_pool(cfg); // immortal; reachable from the registry
      reg.classes.push_back({size, align, pool});
    }
  }
  return *pool;
}

} // namespace ssq::mem
