// Typed elimination arena for synchronous handoff (paper §5).
//
// "Using elimination, multiple locations (comprising an arena) are employed
// as potential targets of the main atomic instructions ... If two threads
// meet in one of these lower-traffic areas, they cancel each other out."
//
// Unlike an exchange channel (the paper's ref 18), which pairs *any* two
// threads, a synchronous-queue arena must pair complementary operations
// only: a producer parked in a slot may be claimed only by a consumer and
// vice versa (two producers meeting must not swap). Each installed node
// therefore carries its mode, and a same-mode arrival treats the slot as a
// collision.
//
// Used by eliminating_sq (core/eliminating_sq.hpp); benchmarked by
// bench/ablation_elimination, which tests the paper's prediction that
// elimination pays off "only in cases of artificially extreme contention."
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>

#include "check/schedule_fuzz.hpp"
#include "support/cacheline.hpp"
#include "support/codec.hpp"
#include "support/rng.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"

namespace ssq {

template <std::size_t ArenaSize = 16>
class elimination_arena {
  struct enode {
    item_token mine;                          // producer's token, or empty
    std::atomic<item_token> got{empty_token}; // counterpart result
    sync::park_slot slot;
    explicit enode(item_token m) noexcept : mine(m) {}
    item_token self_marker() const noexcept {
      return reinterpret_cast<item_token>(this);
    }
  };

  // Slot values carry the occupant's mode in the low pointer bit, so an
  // arrival can classify a peer WITHOUT dereferencing it -- the peer's node
  // lives on its stack and may be withdrawn (and the frame reused) at any
  // moment before we win the claim CAS.
  static enode *pack(enode *n, bool is_data) noexcept {
    return reinterpret_cast<enode *>(reinterpret_cast<std::uintptr_t>(n) |
                                     (is_data ? 1u : 0u));
  }
  static enode *unpack(enode *p) noexcept {
    return reinterpret_cast<enode *>(reinterpret_cast<std::uintptr_t>(p) &
                                     ~std::uintptr_t(1));
  }
  static bool packed_is_data(enode *p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
  }

 public:
  elimination_arena() {
    for (auto &s : slots_) s.value.store(nullptr, std::memory_order_relaxed);
  }
  elimination_arena(const elimination_arena &) = delete;
  elimination_arena &operator=(const elimination_arena &) = delete;

  // Attempt a rendezvous within deadline `dl` (typically a few microseconds
  // of patience). For producers (is_data=true, e != empty): returns e on
  // success. For consumers: returns the received token. Returns empty_token
  // when no counterpart showed up -- caller falls back to the main
  // structure.
  item_token try_eliminate(item_token e, bool is_data, deadline dl,
                           sync::spin_policy pol) {
    thread_local xoshiro256 rng{0xA0761D6478BD642FULL ^
                                reinterpret_cast<std::uintptr_t>(&rng)};
    enode self{e};
    std::size_t idx = rng.below(live_slots());

    std::atomic<enode *> &slot = slots_[idx].value;
    enode *cur = slot.load(std::memory_order_seq_cst);

    if (cur != nullptr && packed_is_data(cur) != is_data) {
      // Complementary party parked here: claim it.
      //
      // Withdraw-vs-claim audit. The peer's enode lives on its stack and
      // the frame can be reused the instant the peer's withdrawal CAS
      // succeeds, so the lifetime argument is:
      //   1. Classification above used only the mode bit packed into the
      //      *pointer value* -- no dereference before the claim CAS.
      //   2. The claim CAS and the peer's withdraw CAS target the same
      //      slot word with seq_cst strong CAS, so exactly one wins. If we
      //      win, the peer's withdrawal fails and it enters its settle
      //      loop: the frame stays live until got is published *and* the
      //      park slot is signalled.
      //   3. got.store precedes slot.signal(), and the peer re-checks
      //      was_signalled() before returning, so signal() is provably the
      //      last touch (a futex wake takes only the address, never the
      //      node, into the kernel).
      SSQ_INTERLEAVE("arena.claim.pre");
      if (slot.compare_exchange_strong(cur, nullptr,
                                       std::memory_order_seq_cst)) {
        enode *peer = unpack(cur);
        item_token theirs = peer->mine; // empty for a consumer node
        SSQ_INTERLEAVE("arena.handoff");
        peer->got.store(is_data ? e : peer->self_marker(),
                        std::memory_order_seq_cst);
        peer->slot.signal(); // last touch of the counterpart's node
        return is_data ? e : theirs;
      }
      return empty_token; // collision; let the caller fall back
    }
    if (cur != nullptr) return empty_token; // same-mode occupant: collision

    // Empty slot: park here for the remaining patience.
    if (!slot.compare_exchange_strong(cur, pack(&self, is_data),
                                      std::memory_order_seq_cst))
      return empty_token;
    auto done = [&] {
      return self.got.load(std::memory_order_seq_cst) != empty_token;
    };
    auto r = sync::spin_then_park(self.slot, done, [] { return true; }, pol,
                                  dl, nullptr);
    if (r != sync::park_slot::wait_result::woken) {
      SSQ_INTERLEAVE("arena.withdraw");
      enode *expected = pack(&self, is_data);
      if (slot.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst))
        return empty_token; // withdrew cleanly
      // A claimer won the race; its handoff completes imminently.
    }
    // Do not let this frame die before the claimer's final touch. signal()
    // follows its got store, so once it is observed got is visible too.
    sync::settle([&self] { return self.slot.was_signalled(); });
    item_token g = self.got.load(std::memory_order_seq_cst);
    return is_data ? e : g;
  }

 private:
  std::size_t live_slots() const noexcept {
    // Scale the probed region with available parallelism; a uniprocessor
    // probes one slot.
    static const std::size_t n = [] {
      unsigned c = std::thread::hardware_concurrency();
      std::size_t want = c ? c : 1;
      return want < ArenaSize ? want : ArenaSize;
    }();
    return n;
  }

  std::array<padded_atomic<enode *>, ArenaSize> slots_;
};

} // namespace ssq
