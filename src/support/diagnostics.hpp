// Process-wide diagnostic counters, kept in per-thread shards.
//
// Tests use these to assert *quantitative* properties that black-box
// functional tests cannot see: that retired nodes are eventually freed, that
// the cancelled-node cleaning strategy keeps garbage bounded under offer
// storms, that the spin-then-park policy actually parks (or doesn't).
//
// A bump is one relaxed add on a cache-line-aligned shard that only the
// calling thread writes, so counting never makes threads share a line. A
// thread's shard is registered on its first bump and folded into an
// exited-threads total when the thread ends; bumps made after that (e.g.
// hazard scans during static teardown) go straight to that total. read(),
// snapshot::take() and reset_all() sum or zero the shards under the
// registry mutex. The counters are a measurement aid, not a synchronization
// mechanism: a read that races bumps sees each shard at some recent value.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/annotations.hpp"
#include "support/config.hpp"

namespace ssq::diag {

enum class id : unsigned {
  node_alloc,   // dual-structure nodes constructed
  node_free,    // nodes and segments given up: bumped by a reclaimer's
                // destroy(), and by transfer_queue, transfer_stack and
                // segment_queue when they retire one -- not when the
                // reclaimer later frees it
  node_retire,  // nodes handed to a reclamation domain
  box_alloc,    // item boxes from item_codec
  box_free,
  hp_scan,      // hazard-pointer domain scans
  park,         // threads that actually blocked in the kernel
  unpark,       // futex wakes issued
  spin_retry,   // spin-loop iterations before a park
  clean_call,   // transfer_queue/stack cancelled-node cleaning passes
  clean_unlink, // cancelled nodes successfully unlinked
  cas_fail,     // head/tail/item CAS failures (contention indicator);
                // segment_queue never bumps it
  pool_recycle, // node_pool allocations served from a magazine or the depot:
                // nodes, segments and item boxes alike
  pool_fresh,   // node_pool allocations that carved a fresh chunk
  seg_alloc,    // segment_queue: 64-cell segments allocated
  seg_retire,   // segment_queue: whole segments handed to the reclaimer
  cell_poison,  // segment_queue: cells killed by cancellation/now-miss
  count_        // sentinel
};

inline constexpr unsigned id_count = static_cast<unsigned>(id::count_);

namespace detail {

// One thread's counters. Aligned so that no two shards share a line.
struct alignas(cacheline_size) shard {
  std::atomic<std::uint64_t> v[id_count]{};
  shard *next = nullptr; // registry list link, guarded by the registry mutex
};

// The calling thread's shard: null before its first bump, the
// exited-threads total once the thread's shard has been folded away.
inline thread_local shard *tl_shard = nullptr;

// Slow path of the first bump on a thread: registers a fresh shard.
shard *attach() noexcept;

} // namespace detail

inline void bump(id which, std::uint64_t n = 1) noexcept {
  detail::shard *s = detail::tl_shard;
  if (s == nullptr) s = detail::attach();
  SSQ_MO_JUSTIFIED("relaxed: measurement counter; readers only sum it");
  s->v[static_cast<unsigned>(which)].fetch_add(n, std::memory_order_relaxed);
}

// Sum of one counter over every live shard and the exited-threads total.
std::uint64_t read(id which) noexcept;

// Zero every counter (tests call this in SetUp).
void reset_all() noexcept;

// A point-in-time copy of all counters, with subtraction for deltas.
struct snapshot {
  std::uint64_t v[id_count]{};

  static snapshot take() noexcept;
  std::uint64_t operator[](id which) const noexcept {
    return v[static_cast<unsigned>(which)];
  }
  snapshot operator-(const snapshot &rhs) const noexcept;
};

} // namespace ssq::diag
