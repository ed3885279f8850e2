// Reclaimer policies and the two-party node lifecycle protocol.
//
// Every dual-structure template takes a Reclaimer policy parameter:
//
//   * pooled_hp_reclaimer -- hazard pointers + thread-local node pools (the
//                       default: nodes recycle through memory/node_pool.hpp
//                       instead of the global heap, restoring the allocation
//                       economy the paper's Java original got from TLABs)
//   * hp_reclaimer    -- hazard pointers over the global heap (safe with
//                       parked waiters, see memory/hazard.hpp); the
//                       heap-allocation baseline bench/ablation_pooling
//                       prices the pools against
//   * deferred_reclaimer / pooled_deferred_reclaimer -- retire is a
//                       lock-free push onto a tombstone list freed only at
//                       reclaimer destruction. Models "GC for free" with
//                       zero per-scan cost; used by bench/ablation_pooling
//                       to price the safety of HP.
//
// A policy provides:
//   struct slot {                         // per-pointer protection guard
//     explicit slot(const Reclaimer&);
//     T* protect(const std::atomic<T*>&); // read + publish + validate
//     void set(T*);                       // publish a pre-validated pointer
//     void clear();
//   };
//   template <class Node> Node* create(Args&&...); // allocate + construct
//   template <class Node> void destroy(Node*);     // free a node that was
//                                                  // never linked (or is
//                                                  // being torn down
//                                                  // single-threaded)
//   template <class Node> void retire(Node*);      // free once unreferenced
//   void quiesce();                           // tests: drain what's drainable
//
// create/destroy/retire are the single seam through which nodes enter and
// leave a structure; the structures never call new/delete on nodes
// directly, so swapping the allocation backend (heap vs. pool) is purely a
// policy choice and the leak/deferred ablation compiles against both.
//
// -----------------------------------------------------------------------
// Node lifecycle: waiters and unlinkers race to retire.
//
// A waiter's own node may be unlinked from the structure (by a fulfiller or
// helper) while the waiter is still reading its fields -- the waiter holds no
// hazard on its *own* node. life_cycle arbitrates: the node is retired by
// whichever of {owner-release, unlink} happens second, and double-unlink
// races (possible under stack helping) retire exactly once.
// -----------------------------------------------------------------------
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "memory/hazard.hpp"
#include "memory/node_pool.hpp"
#include "support/annotations.hpp"
#include "support/diagnostics.hpp"

namespace ssq::mem {

class life_cycle {
  enum : std::uint8_t { unlinked_bit = 1, released_bit = 2 };

 public:
  // Node removed from the structure. Returns true iff the caller must
  // retire the node (i.e. this is the first unlink and the owner is done).
  bool mark_unlinked() noexcept {
    SSQ_MO_JUSTIFIED(
        "acq_rel: release publishes the unlinker's writes to whoever "
        "retires; acquire sees the owner's final writes if released_bit "
        "is already set");
    auto old = bits_.fetch_or(unlinked_bit, std::memory_order_acq_rel);
    if (old & unlinked_bit) return false; // someone else unlinked first
    return (old & released_bit) != 0;
  }

  // Owner (the waiter that created the node) will never touch it again.
  // Returns true iff the caller must retire the node.
  bool mark_released() noexcept {
    SSQ_MO_JUSTIFIED(
        "acq_rel: mirror of mark_unlinked -- the second of the two "
        "fetch_ors must observe the first party's writes before retiring");
    auto old = bits_.fetch_or(released_bit, std::memory_order_acq_rel);
    SSQ_ASSERT((old & released_bit) == 0, "double owner release");
    return (old & unlinked_bit) != 0;
  }

  // For nodes with no waiting owner (dummies, async producers' nodes):
  // retire responsibility falls entirely on the unlinker.
  void preset_released() noexcept {
    SSQ_MO_JUSTIFIED(
        "relaxed: runs before the node is published (no concurrent reader); "
        "the publishing CAS provides the release fence");
    bits_.store(released_bit, std::memory_order_relaxed);
  }

  bool is_unlinked() const noexcept {
    SSQ_MO_JUSTIFIED(
        "acquire: pairs with mark_unlinked's release half so a reader that "
        "sees the bit also sees the unlinker's preceding writes");
    return bits_.load(std::memory_order_acquire) & unlinked_bit;
  }

 private:
  std::atomic<std::uint8_t> bits_{0};
};

// ---------------------------------------------------------------------------
// Node allocation policies: where dual-structure nodes come from.
// ---------------------------------------------------------------------------

// Global heap: what the seed implementation always did.
struct heap_node_alloc {
  template <typename Node, typename... Args>
  static Node *create(Args &&...args) {
    return new Node(std::forward<Args>(args)...);
  }

  template <typename Node>
  static void destroy(Node *n) noexcept {
    delete n;
  }

  template <typename Node>
  static auto deleter() noexcept -> void (*)(void *) {
    return [](void *p) { delete static_cast<Node *>(p); };
  }
};

// Thread-local node pools (memory/node_pool.hpp). Blocks are cache-line
// aligned (global_pool_of) -- adjacent nodes handed to different thread
// pairs never share a line for their futex/park words -- and recycle
// through per-thread magazines instead of the heap.
struct pooled_node_alloc {
  template <typename Node>
  static node_pool &pool() {
    // destroy() and the deleter hand the raw block back without a
    // destructor call, so a node's destructor would never run.
    static_assert(std::is_trivially_destructible_v<Node>,
                  "pooled nodes must be trivially destructible");
    return global_pool_of<Node>();
  }

  template <typename Node, typename... Args>
  static Node *create(Args &&...args) {
    return ::new (pool<Node>().allocate()) Node(std::forward<Args>(args)...);
  }

  template <typename Node>
  static void destroy(Node *n) noexcept {
    pool<Node>().deallocate(n);
  }

  template <typename Node>
  static auto deleter() noexcept -> void (*)(void *) {
    // Runs inside hazard scans -- possibly during thread or static
    // teardown, after this thread's pool cache is gone; deallocate then
    // pushes the block straight to the pool's depot.
    return [](void *p) { pool<Node>().deallocate(p); };
  }
};

// ---------------------------------------------------------------------------

template <typename Alloc>
struct basic_hp_reclaimer {
  using allocator = Alloc;

  hazard_domain *dom = &hazard_domain::global();

  class slot {
   public:
    explicit slot(const basic_hp_reclaimer &r) noexcept : h_(*r.dom) {}

    template <typename T>
    T *protect(const std::atomic<T *> &src) noexcept {
      return h_.protect(src);
    }
    template <typename T>
    void set(T *p) noexcept {
      h_.set(p);
    }
    void clear() noexcept { h_.clear(); }

   private:
    hazard_domain::hazard h_;
  };

  template <typename Node, typename... Args>
  Node *create(Args &&...args) {
    diag::bump(diag::id::node_alloc);
    return Alloc::template create<Node>(std::forward<Args>(args)...);
  }

  template <typename Node>
  void destroy(Node *n) noexcept {
    diag::bump(diag::id::node_free);
    Alloc::destroy(n);
  }

  template <typename Node>
  void retire(Node *n) {
    // The retired_node deleter seam is reused unchanged: the scan logic
    // neither knows nor cares whether the deleter frees to the heap or
    // recycles into a pool.
    dom->retire(const_cast<void *>(static_cast<const void *>(n)),
                Alloc::template deleter<Node>());
  }

  void register_root(const std::atomic<void *> *root) { dom->add_root(root); }
  void unregister_root(const std::atomic<void *> *root) {
    dom->remove_root(root);
  }

  void quiesce() { dom->drain(); }
};

using hp_reclaimer = basic_hp_reclaimer<heap_node_alloc>;
using pooled_hp_reclaimer = basic_hp_reclaimer<pooled_node_alloc>;

// ---------------------------------------------------------------------------

template <typename Alloc>
struct basic_deferred_reclaimer {
  using allocator = Alloc;

  basic_deferred_reclaimer() = default;
  basic_deferred_reclaimer(const basic_deferred_reclaimer &) = delete;
  basic_deferred_reclaimer &operator=(const basic_deferred_reclaimer &) =
      delete;

  // Movable so structures can take a reclaimer by value. Move is only
  // meaningful before concurrent use begins.
  basic_deferred_reclaimer(basic_deferred_reclaimer &&other) noexcept
      : head_(other.head_.exchange(nullptr, std::memory_order_acq_rel)) {}

  ~basic_deferred_reclaimer() {
    tombstone *t = head_.load(std::memory_order_acquire);
    while (t) {
      tombstone *next = t->next;
      t->deleter(t->ptr);
      delete t;
      t = next;
    }
  }

  class slot {
   public:
    explicit slot(const basic_deferred_reclaimer &) noexcept {}

    template <typename T>
    T *protect(const std::atomic<T *> &src) noexcept {
      SSQ_MO_JUSTIFIED(
          "acquire: deferred reclamation never frees during operation, so "
          "protect only needs to see the node's initialization");
      return src.load(std::memory_order_acquire);
    }
    template <typename T>
    void set(T *) noexcept {}
    void clear() noexcept {}
  };

  template <typename Node, typename... Args>
  Node *create(Args &&...args) {
    diag::bump(diag::id::node_alloc);
    return Alloc::template create<Node>(std::forward<Args>(args)...);
  }

  template <typename Node>
  void destroy(Node *n) noexcept {
    diag::bump(diag::id::node_free);
    Alloc::destroy(n);
  }

  template <typename Node>
  void retire(Node *n) {
    diag::bump(diag::id::node_retire);
    auto *t = new tombstone{n, Alloc::template deleter<Node>(), nullptr};
    SSQ_MO_JUSTIFIED("acquire: must see the pushed tombstone's next field");
    tombstone *h = head_.load(std::memory_order_acquire);
    SSQ_MO_JUSTIFIED(
        "acq_rel on success publishes t->next; acquire on failure re-reads "
        "the list head consistently");
    do {
      t->next = h;
    } while (!head_.compare_exchange_weak(h, t, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
  }

  void register_root(const std::atomic<void *> *) noexcept {}
  void unregister_root(const std::atomic<void *> *) noexcept {}

  void quiesce() noexcept {}

 private:
  struct tombstone {
    void *ptr;
    void (*deleter)(void *);
    tombstone *next;
  };
  std::atomic<tombstone *> head_{nullptr};
};

using deferred_reclaimer = basic_deferred_reclaimer<heap_node_alloc>;
using pooled_deferred_reclaimer = basic_deferred_reclaimer<pooled_node_alloc>;

} // namespace ssq::mem
