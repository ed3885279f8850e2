// Thread-local node pools: fixed-size-block recycling for dual-structure
// nodes.
//
// Why this exists: every put/take allocates one qnode/snode and every
// hazard-pointer scan frees a batch of them -- traffic the paper's Java
// original never paid for, because HotSpot's TLAB bump allocation and the
// collector made node turnover nearly free. This pool restores that economy
// for the C++ port: in steady state a transfer's node comes from a
// per-thread LIFO magazine (the block most recently freed on this thread,
// still warm in cache) and goes back to one, with no global-heap call on
// the hot path.
//
// Architecture (one pool per block size class):
//
//   * per-thread magazines -- a LIFO array of free blocks, no
//     synchronization. Allocation pops; deallocation pushes; half the
//     magazine spills to the shared side when it fills.
//   * a bounded global overflow ring -- a fixed-capacity MPMC ring buffer
//     (Vyukov-style sequence numbers) through which blocks retired on one
//     thread reach another's magazine. Bounded so a producer/consumer role
//     imbalance cannot grow an unbounded shared freelist.
//   * an orphan list -- the mutex-guarded fallback of last resort, written
//     when the ring is full and at thread exit (a dying thread flushes its
//     magazines here, mirroring hazard_domain's orphan protocol), adopted
//     in bulk by the next allocation miss.
//   * chunks -- blocks are carved `chunk_blocks` at a time from
//     cache-line-aligned slabs, so adjacent nodes handed to different
//     thread pairs do not false-share their futex/park words. Chunk memory
//     is owned by the pool and freed only at pool destruction; individual
//     blocks are never returned to the heap.
//
// Users: pooled_node_alloc (memory/reclaim.hpp) for dual-structure nodes
// and segments, and item_codec (support/codec.hpp) for item boxes. Each
// finds its global size-class pool once per type (global_pool_of).
//
// Under AddressSanitizer every block is poisoned while it sits free -- in a
// magazine, the ring, the orphan list, or freshly carved -- so a stale
// access to a recycled node or box is reported as use-after-poison instead
// of passing as silent reuse. Poisoning cannot see an access that comes
// after the block is handed out again (docs/memory_reclamation.md §7).
//
// Interaction with hazard pointers: a pooled node is returned to the pool
// by the *reclaimer's deleter*, i.e. only after a hazard scan has proven no
// thread still references it -- exactly the point at which the heap
// allocator would have been allowed to reuse the address. Pooling therefore
// introduces no new ABA exposure; it only shortens the address-reuse window
// (see docs/memory_reclamation.md §7).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/config.hpp"

namespace ssq::mem {

class node_pool {
 public:
  struct config {
    std::size_t block_size;
    std::size_t block_align = cacheline_size;
    std::size_t magazine_cap = 64; // per-thread LIFO depth
    std::size_t ring_cap = 1024;   // overflow ring (rounded up to 2^k)
    std::size_t chunk_blocks = 32; // blocks carved per slab
  };

  explicit node_pool(const config &c);
  // Precondition (as for hazard_domain): no thread concurrently uses this
  // pool. Frees every chunk wholesale, including blocks still sitting in
  // exited threads' flushed magazines.
  ~node_pool();

  node_pool(const node_pool &) = delete;
  node_pool &operator=(const node_pool &) = delete;

  // Pop from this thread's magazine; refill from the ring, then the orphan
  // list, then a freshly carved chunk.
  void *allocate();

  // Push onto this thread's magazine, spilling half to the shared side when
  // full. Requires a live calling thread (uses thread-local state).
  void deallocate(void *p) noexcept;

  // Return a block without touching thread-local state: overflow ring,
  // else orphan list. Safe from any context, including thread teardown.
  void deallocate_remote(void *p) noexcept;

  // ------------------------------------------------------------ observers
  std::size_t stride() const noexcept { return stride_; }
  std::size_t block_align() const noexcept { return align_; }
  std::size_t magazine_cap() const noexcept { return magazine_cap_; }
  std::size_t chunk_count() const noexcept {
    return nchunks_.load(std::memory_order_relaxed);
  }
  std::size_t ring_capacity() const noexcept { return ring_mask_ + 1; }
  std::size_t ring_size() const noexcept; // approximate under concurrency
  std::size_t orphan_count() const;       // takes the orphan mutex
  // Blocks currently cached in the calling thread's magazine for this pool.
  std::size_t magazine_size() const noexcept;
  std::uint64_t uid() const noexcept { return uid_; }

  // The process-wide pool for a (size, align) class. Created on first use
  // and kept alive through static teardown (late hazard-scan deleters may
  // still free into it); reachable from the registry, so leak checkers see
  // it as live memory, not a leak. Takes a mutex: callers look a class up
  // once (global_pool_of), not per allocation.
  static node_pool &global_for(std::size_t size, std::size_t align);

  // Per-thread magazine cache; defined in node_pool.cpp, public so the
  // thread_local instance can name it.
  struct tl_cache;

 private:
  friend struct tl_cache;

  struct chunk {
    chunk *next;
  };
  struct ring_cell {
    std::atomic<std::size_t> seq{0};
    void *ptr = nullptr;
  };
  struct orphanage; // mutex + vector, defined in node_pool.cpp

  bool ring_push(void *p) noexcept;
  void *ring_pop() noexcept;
  // Allocate a slab, link it, return one block; the rest go to `mag` (or
  // the shared side when called without a magazine).
  void *carve_chunk(std::vector<void *> *mag);
  // Ring first, then orphans in bulk; nullptr on miss.
  void *refill(std::vector<void *> *mag) noexcept;

  const std::size_t stride_;
  const std::size_t align_;
  const std::size_t magazine_cap_;
  const std::size_t chunk_blocks_;
  const std::uint64_t uid_;

  const std::size_t ring_mask_;
  std::unique_ptr<ring_cell[]> ring_;
  alignas(cacheline_size) std::atomic<std::size_t> ring_head_{0};
  alignas(cacheline_size) std::atomic<std::size_t> ring_tail_{0};

  alignas(cacheline_size) std::atomic<chunk *> chunks_{nullptr};
  std::atomic<std::size_t> nchunks_{0};
  orphanage *orphans_;
};

// The global pool of T's (size, alignment) class, found once per T. Global
// pools are immortal, so the reference stays valid through static teardown.
// Blocks are cache-line aligned, or more if T asks for it, so two blocks
// handed to different threads never share a line.
template <typename T>
node_pool &global_pool_of() {
  constexpr std::size_t align =
      alignof(T) > cacheline_size ? alignof(T) : cacheline_size;
  static node_pool &p = node_pool::global_for(sizeof(T), align);
  return p;
}

} // namespace ssq::mem
