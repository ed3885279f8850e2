#include "memory/node_pool.hpp"

#include <algorithm>
#include <new>

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

// ---------------------------------------------------------------------------
// Per-thread magazine cache.
// ---------------------------------------------------------------------------

struct node_pool::tl_cache {
  struct entry {
    node_pool *pool;
    std::vector<void *> blocks; // the magazine: LIFO, pop_back/push_back
  };
  // A thread rarely touches more than a couple of pools; linear scan wins.
  std::vector<entry> entries;

  std::vector<void *> &magazine(node_pool *p) {
    for (entry &e : entries)
      if (e.pool == p) return e.blocks;
    entries.push_back({p, {}});
    entries.back().blocks.reserve(p->magazine_cap_);
    return entries.back().blocks;
  }

  // Thread exit: flush every magazine into its pool's depot, where other
  // threads' refills adopt the blocks. Pools are immortal, so every entry's
  // pool is still there.
  ~tl_cache() {
    for (entry &e : entries)
      e.pool->to_depot(e.blocks.data(), e.blocks.data() + e.blocks.size());
  }
};

namespace {

// Thread-local cache access that stays safe through thread teardown. The
// slot itself is a trivially-destructible thread_local (never torn down, so
// reading it late is fine); the owner is a separate thread_local whose
// destructor flushes the cache and marks the slot dead. After that point
// try_cache() returns nullptr and callers fall back to the depot.
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

std::size_t round_up(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

} // namespace

// Large blocks (waiter-cell segments are ~4 KiB) get a shallow magazine and
// small chunks: the small-block depths, tuned for 64-128 byte nodes and
// boxes, would pin a quarter megabyte per thread.
node_pool::node_pool(std::size_t size, std::size_t align)
    : align_(std::max(align, sizeof(void *))),
      stride_(round_up(std::max<std::size_t>(size, 1), align_)),
      magazine_cap_(size >= 1024 ? 8 : 64),
      chunk_blocks_(size >= 1024 ? 4 : 32) {}

// ---------------------------------------------------------------------------
// The depot.
// ---------------------------------------------------------------------------

void node_pool::to_depot(void *const *first, void *const *last) noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  depot_.insert(depot_.end(), first, last); // within capacity: no allocation
}

void *node_pool::refill(std::vector<void *> *mag) noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  if (depot_.empty()) return nullptr;
  // One lock hands out half a magazine: the top block, and the rest into
  // the (empty) magazine.
  const std::size_t n = mag ? std::min(depot_.size(), magazine_cap_ / 2) : 1;
  void *first = depot_.back();
  if (mag) mag->insert(mag->end(), depot_.end() - n, depot_.end() - 1);
  depot_.resize(depot_.size() - n);
  return first;
}

void *node_pool::carve_chunk(std::vector<void *> *mag) {
  char *raw = static_cast<char *>(
      ::operator new(stride_ * chunk_blocks_, std::align_val_t(align_)));
  SSQ_POOL_POISON(raw + stride_, stride_ * (chunk_blocks_ - 1));
  std::lock_guard<std::mutex> lk(mu_);
  chunks_.push_back(raw);
  // The depot never holds more than every carved block, so with this
  // capacity to_depot never allocates.
  depot_.reserve(chunks_.size() * chunk_blocks_);
  // The magazine is empty and has room for a whole chunk. Highest address
  // first, so it hands the blocks out in address order.
  std::vector<void *> &rest = mag ? *mag : depot_;
  for (std::size_t i = chunk_blocks_ - 1; i > 0; --i)
    rest.push_back(raw + stride_ * i);
  return raw;
}

// ---------------------------------------------------------------------------
// Allocation paths.
// ---------------------------------------------------------------------------

void *node_pool::allocate() {
  tl_cache *c = try_cache();
  std::vector<void *> *mag = c ? &c->magazine(this) : nullptr;
  void *p;
  if (mag && !mag->empty()) {
    p = mag->back(); // LIFO: the cache-warmest block
    mag->pop_back();
  } else if (!(p = refill(mag))) {
    diag::bump(diag::id::pool_fresh);
    return carve_chunk(mag);
  }
  diag::bump(diag::id::pool_recycle);
  SSQ_POOL_UNPOISON(p, stride_);
  return p;
}

void node_pool::deallocate(void *p) noexcept {
  SSQ_POOL_POISON(p, stride_);
  tl_cache *c = try_cache();
  if (!c) {
    to_depot(&p, &p + 1);
    return;
  }
  std::vector<void *> &mag = c->magazine(this);
  if (mag.size() >= magazine_cap_) {
    // Spill half to the depot so blocks freed here can feed threads that
    // only allocate.
    const std::size_t keep = mag.size() - magazine_cap_ / 2;
    to_depot(mag.data() + keep, mag.data() + mag.size());
    mag.resize(keep);
  }
  mag.push_back(p);
}

// ---------------------------------------------------------------------------
// Observers.
// ---------------------------------------------------------------------------

std::size_t node_pool::chunk_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chunks_.size();
}

std::size_t node_pool::depot_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return depot_.size();
}

std::size_t node_pool::magazine_size() const noexcept {
  if (const tl_cache *c = g_slot.cache)
    for (const auto &e : c->entries)
      if (e.pool == this) return e.blocks.size();
  return 0;
}

// ---------------------------------------------------------------------------
// Global size-class pools.
// ---------------------------------------------------------------------------

node_pool &node_pool::global_for(std::size_t size, std::size_t align) {
  struct klass {
    std::size_t size;
    std::size_t align;
    node_pool *pool;
  };
  struct registry {
    std::mutex mu;
    std::vector<klass> classes;
  };
  // Heap-allocated and never destroyed, like the pools it holds: hazard
  // scans running during static teardown may still free pooled nodes into
  // them. The pools and their chunks stay reachable from here, so leak
  // checkers report them as live, not leaked.
  static registry *reg = new registry;
  std::lock_guard<std::mutex> lk(reg->mu);
  for (const klass &k : reg->classes)
    if (k.size == size && k.align == align) return *k.pool;
  reg->classes.push_back({size, align, new node_pool(size, align)});
  return *reg->classes.back().pool;
}

} // namespace ssq::mem
