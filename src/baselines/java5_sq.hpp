// The Java SE 5.0 SynchronousQueue (paper Listing 4).
//
// One entry lock protects two lists of waiter nodes -- waiting producers and
// waiting consumers. An arriving thread pops a counterpart if one is waiting
// (one lock acquisition + one unpark: the "three synchronization operations"
// the paper credits this design with, versus Hanson's six), otherwise pushes
// its own node and blocks.
//
//   * fair mode:   FIFO waiter lists + a strict-FIFO entry lock
//                  (sync::fair_lock), reproducing the fair-mode ReentrantLock
//                  whose pileups dominate Figure 3's fair curve;
//   * unfair mode: LIFO waiter lists + a barging std::mutex.
//
// This is the *baseline* whose single coarse lock the paper's new algorithms
// eliminate.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

#include "support/annotations.hpp"
#include "support/time.hpp"
#include "sync/fair_lock.hpp"
#include "sync/interrupt.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

template <typename T, bool Fair>
class java5_sq {
  enum : std::uint32_t { waiting = 0, matched = 1, cancelled = 2 };

  struct node {
    std::atomic<std::uint32_t> state{waiting};
    std::optional<T> item; // producer's offering / consumer's receipt
    sync::park_slot slot;
    node *next = nullptr; // list linkage, guarded by the entry lock
  };

  // Intrusive waiter list: FIFO in fair mode, LIFO in unfair mode. All
  // mutation happens under the entry lock.
  struct waiter_list {
    node *head = nullptr;
    node *tail = nullptr;

    void push(node *n) {
      if constexpr (Fair) { // enqueue at tail
        n->next = nullptr;
        if (tail)
          tail->next = n;
        else
          head = n;
        tail = n;
      } else { // push at head
        n->next = head;
        head = n;
      }
    }

    node *pop() {
      node *n = head;
      if (n) {
        head = n->next;
        if constexpr (Fair) {
          if (!head) tail = nullptr;
        }
      }
      return n;
    }

    // Cancellation: the owner removes its own node (O(n) under the lock --
    // acceptable for a baseline whose lock is the bottleneck anyway).
    void remove(node *n) {
      node **pp = &head;
      node *prev = nullptr;
      while (*pp) {
        if (*pp == n) {
          *pp = n->next;
          if constexpr (Fair) {
            if (tail == n) tail = prev;
          }
          return;
        }
        prev = *pp;
        pp = &(*pp)->next;
      }
    }
  };

 public:
  static constexpr bool supports_timed = true;
  static constexpr bool is_fair = Fair;

  java5_sq() : pol_(sync::spin_policy::adaptive()) {}
  explicit java5_sq(sync::spin_policy pol) : pol_(pol) {}

  void put(T e) { (void)offer(std::move(e), deadline::unbounded()); }

  T take() {
    auto v = poll(deadline::unbounded());
    return std::move(*v);
  }

  bool offer(T e, deadline dl = deadline::expired(),
             sync::interrupt_token *tok = nullptr) {
    node self;
    {
      std::lock_guard<lock_t> lk(qlock_);
      if (node *c = consumers_.pop()) {
        // Deliver directly to the longest-(or most-recently-)waiting
        // consumer.
        c->item.emplace(std::move(e));
        SSQ_MO_JUSTIFIED(
            "release: publishes the item emplace to await()'s acquire load");
        c->state.store(matched, std::memory_order_release);
        c->slot.signal();
        return true;
      }
      if (dl == deadline::expired()) return false;
      self.item.emplace(std::move(e));
      producers_.push(&self);
    }
    return await(self, dl, tok);
  }

  // Executor hook: failed handoff returns the value to the caller.
  bool try_put_ref(T &v, deadline dl, sync::interrupt_token *tok = nullptr) {
    node self;
    {
      std::lock_guard<lock_t> lk(qlock_);
      if (node *c = consumers_.pop()) {
        c->item.emplace(std::move(v));
        SSQ_MO_JUSTIFIED(
            "release: publishes the item emplace to await()'s acquire load");
        c->state.store(matched, std::memory_order_release);
        c->slot.signal();
        return true;
      }
      if (dl == deadline::expired()) return false;
      self.item.emplace(std::move(v));
      producers_.push(&self);
    }
    if (await(self, dl, tok)) return true;
    v = std::move(*self.item);
    return false;
  }

  std::optional<T> poll(deadline dl = deadline::expired(),
                        sync::interrupt_token *tok = nullptr) {
    node self;
    {
      std::lock_guard<lock_t> lk(qlock_);
      if (node *p = producers_.pop()) {
        std::optional<T> e = std::move(p->item);
        SSQ_MO_JUSTIFIED(
            "release: lets the producer's await() acquire-read see the item "
            "was taken before it destroys the stack node");
        p->state.store(matched, std::memory_order_release);
        p->slot.signal();
        return e;
      }
      if (dl == deadline::expired()) return std::nullopt;
      consumers_.push(&self);
    }
    if (!await(self, dl, tok)) return std::nullopt;
    return std::move(self.item);
  }

 private:
  using lock_t = std::conditional_t<Fair, sync::fair_lock, std::mutex>;

  // Wait for a match; on timeout/interrupt, unlink under the lock unless a
  // match raced us there (in which case the transfer already happened and we
  // must honor it).
  bool await(node &self, deadline dl, sync::interrupt_token *tok) {
    auto done = [&] {
      SSQ_MO_JUSTIFIED(
          "acquire: pairs with the matcher's release store; seeing matched "
          "implies the item transfer is visible");
      return self.state.load(std::memory_order_acquire) != waiting;
    };
    auto r = sync::spin_then_park(
        self.slot, done, [] { return true; }, pol_, dl, tok);
    if (r == sync::park_slot::wait_result::woken) {
      settle(self);
      return true;
    }
    {
      std::lock_guard<lock_t> lk(qlock_);
      SSQ_MO_JUSTIFIED(
          "acquire: under the entry lock, but must still pair with the "
          "matcher's lock-free release store");
      if (self.state.load(std::memory_order_acquire) == waiting) {
        SSQ_MO_JUSTIFIED("release: cancellation visible to later matchers");
        self.state.store(cancelled, std::memory_order_release);
        (self.item.has_value() ? producers_ : consumers_).remove(&self);
        return false;
      }
    }
    settle(self); // matched concurrently with our timeout
    return true;
  }

  // `self` lives on the waiter's stack. A matcher's last touch of it is the
  // state_.exchange inside slot.signal() (the subsequent futex wake only
  // uses the *address*). A waiter that noticed the match by spinning could
  // otherwise return -- destroying the node -- between the matcher's
  // state.store and its signal(); wait out that instruction-scale window.
  static void settle(node &self) noexcept {
    sync::settle([&self] { return self.slot.was_signalled(); });
  }

  lock_t qlock_;
  waiter_list producers_;
  waiter_list consumers_;
  sync::spin_policy pol_;
};

} // namespace ssq
