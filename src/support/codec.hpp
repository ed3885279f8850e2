// Item tokens: the C++ replacement for Java's object-reference item word.
//
// The paper's algorithms linearize handoff on a *single CAS of the item
// word*: a data node's item changes value -> null when a consumer claims it;
// a reservation's item changes null -> value when a producer fulfills it; and
// a cancelling waiter changes it to the node's own address. That protocol
// needs every item to be representable in one atomic word with two reserved
// patterns (null and self-pointer). Java gets this for free from boxed
// references; here item_codec<T> provides it:
//
//   * small trivially-copyable T: the value is stored inline, shifted left
//     one bit with the low bit set, so the token is odd -- never zero and
//     never an aligned node/box pointer;
//   * everything else: the value is moved into a pooled box and the
//     (aligned, non-null) box pointer is the token. The consumer that
//     decodes the token takes ownership of the box. Boxes come from the
//     global node_pool of the box's size class (memory/node_pool.hpp), so
//     a transfer pays no heap call: a box is allocated on the producer and
//     freed on the consumer, which glibc's per-thread caches never recycle.
//
// A box pointer can never equal the containing node's own address (distinct
// live blocks: a box and a node are never handed out from the same block at
// the same time), so the cancelled-marker convention is preserved.
#pragma once

#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "memory/node_pool.hpp"
#include "support/config.hpp"
#include "support/diagnostics.hpp"

namespace ssq {

// The wire representation flowing through the dual data structures.
using item_token = std::uintptr_t;

// Reservation not yet fulfilled / data already taken.
inline constexpr item_token empty_token = 0;

template <typename T>
inline constexpr bool is_inline_encodable_v =
    std::is_trivially_copyable_v<T> && sizeof(T) * 8 + 1 <= sizeof(item_token) * 8;

template <typename T, typename Enable = void>
struct item_codec;

// Inline encoding: token = (bits << 1) | 1.
template <typename T>
struct item_codec<T, std::enable_if_t<is_inline_encodable_v<T>>> {
  static constexpr bool boxed = false;

  static item_token encode(const T &v) noexcept {
    item_token bits = 0;
    __builtin_memcpy(&bits, &v, sizeof(T));
    return (bits << 1) | 1u;
  }

  // Take the value out of a token. Inline tokens own nothing, so this is a
  // pure read and may be called any number of times.
  static T decode_consume(item_token t) noexcept {
    SSQ_ASSERT((t & 1u) != 0, "decoding a non-inline token as inline");
    item_token bits = t >> 1;
    T v;
    __builtin_memcpy(&v, &bits, sizeof(T));
    return v;
  }

  // Discard an encoded-but-never-taken token (e.g. a timed-out producer).
  static void dispose(item_token) noexcept {}
};

// Boxed encoding: token = pointer to a pooled box owning the value.
template <typename T>
struct item_codec<T, std::enable_if_t<!is_inline_encodable_v<T>>> {
  static constexpr bool boxed = true;

  // The pool every box of this T comes from.
  static mem::node_pool &pool() { return mem::global_pool_of<box>(); }

  // If T's move constructor throws, the block goes back to the pool before
  // the exception leaves.
  static item_token encode(T v) {
    mem::node_pool &p = pool();
    void *blk = p.allocate();
    box *b;
    try {
      b = ::new (blk) box{std::move(v)};
    } catch (...) {
      p.deallocate(blk);
      throw;
    }
    diag::bump(diag::id::box_alloc);
    return reinterpret_cast<item_token>(b);
  }

  static T decode_consume(item_token t) {
    SSQ_ASSERT(t != empty_token && (t & 1u) == 0, "bad boxed token");
    auto *b = reinterpret_cast<box *>(t);
    T v = std::move(b->value);
    free_box(b);
    return v;
  }

  static void dispose(item_token t) {
    if (t == empty_token) return;
    free_box(reinterpret_cast<box *>(t));
  }

 private:
  struct box {
    T value;
  };

  static void free_box(box *b) noexcept {
    b->~box();
    pool().deallocate(b);
    diag::bump(diag::id::box_free);
  }
};

} // namespace ssq
