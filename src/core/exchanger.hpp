// exchanger<T>: an elimination-based swapping channel (paper §5; Scherer,
// Lea & Scott, "A scalable elimination-based exchange channel", SCOOL 2005 --
// the algorithm behind java.util.concurrent.Exchanger).
//
// Two threads meet at an arena slot and swap values: the first to arrive
// installs a node holding its item and waits; the second removes the node,
// deposits its own item into it, and takes the first's. Under contention,
// threads probe outward into a multi-slot arena so that CAS traffic spreads
// across cache lines instead of piling onto one location; a waiter in an
// outer slot moves back inward if nobody comes.
//
// Node lifetime: a node lives on its owner's stack. The claimer's final
// touch is slot.signal(); the owner leaves only after observing it
// (sync::settle, the same discipline as baselines/java5_sq.hpp), so no
// reclamation domain is needed here.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/rng.hpp"
#include "sync/backoff.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

template <typename T, std::size_t ArenaSize = 32>
class exchanger {
  static_assert(ArenaSize >= 1);
  using codec = item_codec<T>;

  struct xnode {
    item_token mine;                          // my offering (immutable)
    std::atomic<item_token> got{empty_token}; // partner's offering
    sync::park_slot slot;
    explicit xnode(item_token m) noexcept : mine(m) {}
  };

 public:
  exchanger() : exchanger(sync::spin_policy::adaptive()) {}
  explicit exchanger(sync::spin_policy pol) : pol_(pol) {
    for (auto &s : arena_) s.value.store(nullptr, std::memory_order_relaxed);
  }

  exchanger(const exchanger &) = delete;
  exchanger &operator=(const exchanger &) = delete;

  // Swap `v` with another thread's offering. Blocks until a partner
  // arrives.
  T exchange(T v) {
    auto r = exchange_until(std::move(v), deadline::unbounded());
    return std::move(*r);
  }

  // Timed variant: nullopt on timeout (the caller keeps conceptual
  // ownership of v's value -- for boxed codecs it is disposed internally,
  // matching the synchronous-queue failure contract).
  std::optional<T> exchange_until(T v, deadline dl,
                                  sync::interrupt_token *tok = nullptr) {
    xnode self{codec::encode(std::move(v))};
    thread_local xoshiro256 rng{0x9E3779B97F4A7C15ULL ^
                                reinterpret_cast<std::uintptr_t>(&rng)};
    std::size_t bound = 1; // arena radius grows with observed contention
    sync::backoff bo{rng.next()};

    for (;;) {
      std::size_t idx = (bound == 1) ? 0 : rng.below(bound);
      std::atomic<xnode *> &slot = arena_[idx].value;
      xnode *cur = slot.load(std::memory_order_acquire);

      if (cur == nullptr) {
        // Try to be the first at this slot.
        if (!slot.compare_exchange_strong(cur, &self,
                                          std::memory_order_seq_cst)) {
          grow(bound);
          bo.pause();
          continue;
        }
        // Only slot 0 waits out the caller's patience. Two waiters parked
        // in different slots would otherwise wait for each other forever,
        // so an outer-slot waiter gives up after a short spell and moves
        // inward.
        const bool outer = idx != 0;
        deadline wait_dl = dl;
        if (outer) {
          deadline spell = deadline::in(outer_patience);
          if (spell.when() < dl.when()) wait_dl = spell;
        }
        if (wait_for_partner(self, wait_dl, tok)) return take(self);
        // Timed out / interrupted: withdraw. If the withdrawal CAS fails, a
        // partner is mid-claim and will complete imminently.
        xnode *expected = &self;
        if (!slot.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_seq_cst))
          return take(self);
        if (outer && !dl.expired_now() && !(tok && tok->interrupted())) {
          bound /= 2;
          continue;
        }
        codec::dispose(self.mine);
        return std::nullopt;
      }

      // Partner present: claim it.
      if (!slot.compare_exchange_strong(cur, nullptr,
                                        std::memory_order_seq_cst)) {
        grow(bound);
        bo.pause();
        continue;
      }
      // cur is ours alone now (it cannot be withdrawn: the owner's CAS on
      // the slot already failed or will fail).
      // Ownership of self.mine transfers to the partner; we take theirs.
      item_token theirs = cur->mine;
      cur->got.store(self.mine, std::memory_order_seq_cst);
      cur->slot.signal(); // owner's node: last touch
      return codec::decode_consume(theirs);
    }
  }

 private:
  // How long a waiter in an outer slot (index > 0) waits before moving in.
  static constexpr nanoseconds outer_patience = std::chrono::microseconds(50);

  void grow(std::size_t &bound) noexcept {
    if (bound < ArenaSize) bound *= 2;
    if (bound > ArenaSize) bound = ArenaSize;
  }

  bool wait_for_partner(xnode &self, deadline dl,
                        sync::interrupt_token *tok) {
    auto done = [&] {
      return self.got.load(std::memory_order_seq_cst) != empty_token;
    };
    auto r = sync::spin_then_park(self.slot, done, [] { return true; }, pol_,
                                  dl, tok);
    return r == sync::park_slot::wait_result::woken;
  }

  // Settle (see header): signal() follows the claimer's got store, so once
  // it is observed the partner's offering is visible and the node is free.
  static T take(xnode &self) {
    sync::settle([&self] { return self.slot.was_signalled(); });
    return codec::decode_consume(self.got.load(std::memory_order_seq_cst));
  }

  sync::spin_policy pol_;
  std::array<padded_atomic<xnode *>, ArenaSize> arena_;
};

} // namespace ssq
