// Thread-local node pools: fixed-size-block recycling for dual-structure
// nodes and item boxes.
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
// Architecture (one immortal pool per block size class, from global_for):
//
//   * per-thread magazines -- a LIFO array of free blocks, no
//     synchronization. Allocation pops; deallocation pushes.
//   * the depot -- one mutex-guarded stack of free blocks shared by every
//     thread. It takes the half a full magazine spills, an exiting thread's
//     magazines, and blocks freed by a thread whose cache is gone; an empty
//     magazine refills from it half a magazine at a time, under one lock.
//     This is how a block freed on a consumer reaches a producer's
//     magazine.
//   * chunks -- blocks are carved `chunk_blocks` at a time from
//     cache-line-aligned slabs, so adjacent nodes handed to different
//     thread pairs do not false-share their futex/park words. Chunks are
//     never freed, and the pool keeps every one reachable, so leak checkers
//     see them as live memory.
//
// Users: pooled_node_alloc (memory/reclaim.hpp) for dual-structure nodes
// and segments, and item_codec (support/codec.hpp) for item boxes. Each
// finds its global size-class pool once per type (global_pool_of).
//
// Under AddressSanitizer every block is poisoned while it sits free -- in a
// magazine, the depot, or freshly carved -- so a stale access to a recycled
// node or box is reported as use-after-poison instead of passing as silent
// reuse. Poisoning cannot see an access that comes after the block is
// handed out again (docs/memory_reclamation.md §7).
//
// Interaction with hazard pointers: a pooled node is returned to the pool
// by the *reclaimer's deleter*, i.e. only after a hazard scan has proven no
// thread still references it -- exactly the point at which the heap
// allocator would have been allowed to reuse the address. Pooling therefore
// introduces no new ABA exposure; it only shortens the address-reuse window
// (see docs/memory_reclamation.md §7).
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "support/config.hpp"

namespace ssq::mem {

class node_pool {
 public:
  node_pool(const node_pool &) = delete;
  node_pool &operator=(const node_pool &) = delete;

  // Pop from this thread's magazine; refill from the depot, else carve a
  // fresh chunk.
  void *allocate();

  // Push onto this thread's magazine, spilling half to the depot when full;
  // once the thread's cache is gone (thread teardown), push to the depot.
  void deallocate(void *p) noexcept;

  // ------------------------------------------------------------ observers
  std::size_t stride() const noexcept { return stride_; }
  std::size_t chunk_count() const;     // takes the depot lock
  std::size_t depot_size() const;      // takes the depot lock
  // Blocks currently cached in the calling thread's magazine for this pool.
  std::size_t magazine_size() const noexcept;

  // The process-wide pool for a (size, align) class, created on first use.
  // Pools are never destroyed: late hazard-scan deleters may still free into
  // one during static teardown. Takes a mutex: callers look a class up once
  // (global_pool_of), not per allocation.
  static node_pool &global_for(std::size_t size, std::size_t align);

  // Per-thread magazine cache; defined in node_pool.cpp, public so the
  // thread_local instance can name it.
  struct tl_cache;

 private:
  friend struct tl_cache;

  node_pool(std::size_t size, std::size_t align);

  // Push [first, last) onto the depot under its lock.
  void to_depot(void *const *first, void *const *last) noexcept;
  // Take a block from the depot, and up to half a magazine more into `mag`
  // when there is one; nullptr when the depot is empty.
  void *refill(std::vector<void *> *mag) noexcept;
  // Allocate a slab and return its first block; the rest go to `mag`, or to
  // the depot when called without a magazine.
  void *carve_chunk(std::vector<void *> *mag);

  const std::size_t align_;
  const std::size_t stride_;
  const std::size_t magazine_cap_;
  const std::size_t chunk_blocks_;

  mutable std::mutex mu_;      // guards depot_ and chunks_
  std::vector<void *> depot_;  // LIFO; capacity covers every carved block
  std::vector<void *> chunks_; // every slab, kept reachable
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
