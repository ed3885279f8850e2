// park_slot: an embeddable wait channel -- the library's replacement for
// LockSupport.park/unpark (paper §3.3, "Pragmatics").
//
// A waiter whose precondition is not yet satisfied embeds a park_slot in the
// node it published (the node's lifetime is protected by the reclamation
// domain, so a fulfiller's late signal() can never touch freed memory -- the
// property Java gets from GC).
//
// Usage is a guarded-wait idiom that prevents missed wakeups:
//
//     waiter:                         fulfiller:
//       loop {                          CAS item word        (W)
//         if (condition) break;         slot.signal();
//         slot.prepare();
//         if (condition) break;   // re-check after prepare
//         slot.wait(dl);
//       }
//
// prepare() publishes intent with sequentially consistent ordering; signal()
// observes either the intent (and wakes the futex) or finds the slot idle, in
// which case the waiter's post-prepare re-check is guaranteed to observe W.
//
// Episode hygiene (found by the linearizability harness's audit of node
// recycling): the state word carries an episode GENERATION in its upper
// bits next to the phase in its lower two. One wait episode = construction
// or reset() .. the owner's final read. reset() bumps the generation, so a
// signal() that read the previous episode's word and lost its CAS
// recognizes the episode ended and backs off instead of retrying into --
// and corrupting -- the next episode. For pool-recycled nodes the hazard
// protocol already orders every signal() before the block can be reused
// (the fulfiller holds a hazard on the node across the call); the
// generation turns "relies on a protocol three files away" into a local
// invariant, and makes slot reuse (as in the ParkSlotEpisode tests) safe by
// construction. spin_then_park() additionally disarms the slot on every
// non-woken exit and on the done-flipped-after-prepare fast path, so a
// finished episode never leaves `armed` behind: a late same-episode
// signal() then needs no futex syscall at all.
//
// Memory orders (docs/memory_model.md): every operation on the state word
// is seq_cst. prepare()'s arming CAS and signal()'s initial read + CAS form
// a store-load Dekker (the missed-wakeup argument above).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "check/schedule_fuzz.hpp"
#include "support/annotations.hpp"
#include "support/diagnostics.hpp"
#include "support/relax.hpp"
#include "sync/futex.hpp"
#include "sync/interrupt.hpp"
#include "sync/spin_policy.hpp"

namespace ssq::sync {

class park_slot {
  enum : std::uint32_t { idle = 0, armed = 1, signalled = 2 };
  static constexpr std::uint32_t phase_mask = 3;
  static constexpr std::uint32_t gen_step = 4;

  static std::uint32_t phase_of(std::uint32_t w) noexcept {
    return w & phase_mask;
  }
  static std::uint32_t gen_of(std::uint32_t w) noexcept {
    return w & ~phase_mask;
  }

 public:
  park_slot() = default;
  park_slot(const park_slot &) = delete;
  park_slot &operator=(const park_slot &) = delete;

  // Announce that this thread is about to block. Must be followed by a
  // re-check of the waited-for condition before wait(). Owner-only (like
  // wait/disarm/reset); only signal() may be called by other threads.
  //
  // A wake that already landed is PRESERVED (LockSupport permit semantics):
  // if signal() beat us here -- it can land between the guarded-wait loop's
  // condition check and this call -- the slot stays `signalled`, wait()
  // returns immediately, and observers like was_signalled() still see the
  // delivery. A blind store to `armed` would consume-and-erase that one
  // wake, deadlocking waiters whose fulfiller signals exactly once.
  void prepare() noexcept {
    std::uint32_t w = state_.load();
    while (phase_of(w) != signalled) {
      if (state_.compare_exchange_weak(w, gen_of(w) | armed)) return;
    }
  }

  enum class wait_result { woken, timeout, interrupted };

  // Block until signal(), deadline expiry, or (if `tok` is given)
  // interruption. Spurious woken returns are possible; callers re-check
  // their condition in a loop.
  wait_result wait(deadline dl, interrupt_token *tok = nullptr) noexcept {
    if (tok && tok->interrupted()) return wait_result::interrupted;
    diag::bump(diag::id::park);
    const std::uint32_t armed_word = gen_of(state_.load()) | armed;
    for (;;) {
      deadline chunk = dl;
      if (tok) {
        // Bounded-quantum parks so the interrupt flag is observed.
        deadline q = deadline::in(interrupt_token::park_quantum());
        if (q.when() < dl.when()) chunk = q;
      }
      futex_result r = futex_wait(&state_, armed_word, chunk);
      if (tok && tok->interrupted()) return wait_result::interrupted;
      if (state_.load() != armed_word) return wait_result::woken;
      if (r == futex_result::timeout) {
        if (dl.expired_now()) return wait_result::timeout;
        continue; // only the interrupt-poll chunk expired
      }
      // Spurious kernel return with state still armed: report woken and let
      // the caller's loop re-prepare.
      return wait_result::woken;
    }
  }

  // Wake the waiter, if any. Called by the fulfiller *after* it has made the
  // waited-for condition true. Safe to call multiple times and when no
  // waiter ever arrives. If the episode it observed has already been
  // retired (reset() bumped the generation), the call backs off without
  // touching the new episode.
  void signal() noexcept {
    SSQ_INTERLEAVE("park.signal");
    std::uint32_t w = state_.load();
    for (;;) {
      if (phase_of(w) == signalled) return;
      std::uint32_t observed = w;
      // The signalling CAS is the fulfiller's half of the Dekker with
      // prepare().
      if (state_.compare_exchange_strong(w, gen_of(observed) | signalled)) {
        if (phase_of(observed) == armed) {
          diag::bump(diag::id::unpark);
          futex_wake_all(&state_);
        }
        return;
      }
      // CAS failed; `w` holds the fresh word. A generation change means
      // the episode we were signalling is over -- leaking `signalled` into
      // the successor episode would be the recycled-node bug this guards
      // against.
      if (gen_of(w) != gen_of(observed)) return;
    }
  }

  // Owner: retract a prepare() whose wait was abandoned (condition flipped
  // after arming, or wait returned timeout/interrupt). Leaves a concurrent
  // signal() intact: returns true iff a signal won the race, so the slot
  // ends this episode idle or signalled, never armed.
  bool disarm() noexcept {
    std::uint32_t w = state_.load();
    while (phase_of(w) == armed) {
      if (state_.compare_exchange_weak(w, gen_of(w) | idle)) return false;
    }
    return phase_of(w) == signalled;
  }

  // Rearm for another wait episode (the guarded-wait loop calls prepare()
  // each iteration, so an explicit reset is only needed when a slot is
  // reused across logically distinct waits, as the ParkSlotEpisode tests
  // do). Bumps the episode generation: a straggling signal() from the
  // previous episode can no longer mark the new one signalled.
  void reset() noexcept {
    std::uint32_t w = state_.load();
    state_.store(gen_of(w) + gen_step);
  }

  bool was_signalled() const noexcept {
    return phase_of(state_.load()) == signalled;
  }

  // Test/diagnostic observers.
  bool is_armed() const noexcept {
    return phase_of(state_.load()) == armed;
  }
  std::uint32_t episode() const noexcept {
    return gen_of(state_.load()) / gen_step;
  }

 private:
  std::atomic<std::uint32_t> state_{idle};
};

// The complete spin-then-park wait loop shared by every blocking structure in
// the library. Re-evaluates `done` (a nullary predicate returning bool)
// until it holds, the deadline passes, or interruption is observed.
//
// `at_front` (nullary predicate) reports whether this waiter is next in line
// for fulfillment (§3.3): the next counterpart to arrive will match this
// waiter. It does not mean a counterpart has already committed to it -- by
// then spinning no longer matters. Per the paper, only front waiters spin the
// long count.
//
// Every waiter first spins the short count (`back_spins`). `at_front` is
// asked once, when that count has passed without `done`; a waiter that is
// next in line then goes on spinning to `front_spins` in total, any other
// parks. A policy with `back_spins == 0` asks before its first spin. So a
// handoff caught within the short spin never evaluates `at_front`, which
// for the segmented core reads the partner's index counter.
//
// Post-condition (episode hygiene): the slot is never left `armed` --
// every exit path either observed a wake or explicitly disarms.
template <typename DonePred, typename FrontPred>
SSQ_REQUIRES_EPISODE_RESET
park_slot::wait_result spin_then_park(park_slot &slot, DonePred done,
                                      FrontPred at_front, spin_policy pol,
                                      deadline dl,
                                      interrupt_token *tok = nullptr) noexcept {
  // Phase 1: spin.
  if (pol.unbounded_spin()) {
    for (int i = 0;; ++i) {
      if (done()) return park_slot::wait_result::woken;
      if (tok && tok->interrupted()) return park_slot::wait_result::interrupted;
      if (!dl.is_unbounded() && dl.expired_now())
        return park_slot::wait_result::timeout;
      diag::bump(diag::id::spin_retry);
      pol.relax(i);
    }
  }
  int budget = pol.back_spins;
  for (int i = 0;; ++i) {
    if (i == pol.back_spins && at_front()) budget = pol.front_spins;
    if (i >= budget) break;
    if (done()) return park_slot::wait_result::woken;
    if (tok && tok->interrupted()) return park_slot::wait_result::interrupted;
    if (!dl.is_unbounded() && dl.expired_now())
      return park_slot::wait_result::timeout;
    diag::bump(diag::id::spin_retry);
    pol.relax(i);
  }
  // Phase 2: park.
  for (;;) {
    if (done()) return park_slot::wait_result::woken;
    slot.prepare();
    SSQ_INTERLEAVE("park.post_prepare");
    if (done()) {
      slot.disarm(); // hygiene: do not exit an episode armed
      return park_slot::wait_result::woken;
    }
    auto r = slot.wait(dl, tok);
    if (r != park_slot::wait_result::woken) {
      slot.disarm();
      return r;
    }
  }
}

// Wait out a partner that has already committed to this thread and owes
// one last touch of its stack node (typically a store, then signal()):
// spin briefly, then yield. The partner may be preempted inside that
// window, and pure spinning would burn the rest of our time slice -- on a
// uniprocessor, all of it -- before the partner runs again.
template <typename DonePred>
void settle(DonePred done) noexcept {
  for (int spins = 0; !done();) {
    if (spins < 64) {
      ++spins;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

} // namespace ssq::sync
