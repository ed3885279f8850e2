// select: wait on several synchronous channels at once (CSP's alternation,
// Go's select). Completes the CSP story the paper opens with (§1:
// synchronous queues "constitute the central synchronization primitive of
// Hoare's CSP").
//
// Two alternation strategies, picked per pack at compile time:
//
//   * Linked cores get *polling* alternation: try each alternative's
//     non-blocking form (poll/offer) in randomized order, then camp on one
//     with a bounded timed wait (detail::camp_quantum) and re-scan. The
//     randomized start prevents starvation of later alternatives; the
//     quantum bounds the latency of discovering readiness on the others,
//     and two selects that meet only through their probes rendezvous
//     within one quantum. A registering design over the linked dual
//     structures would need a two-phase reservation protocol those
//     algorithms do not provide.
//
//   * Segmented cores (core_kind::segmented) *do* provide that protocol
//     (RESERVED/CLAIMED cell states), so packs made entirely of segmented
//     queues use *registering* alternation: install a cancellable
//     reservation in every queue, park on one arbiter, and poison the
//     losers on the way out. Rendezvous is immediate -- no quantum -- and
//     a select that times out leaves only O(1)-poisoned cells behind.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "core/segment_queue.hpp"
#include "support/codec.hpp"
#include "support/relax.hpp"
#include "support/rng.hpp"
#include "support/time.hpp"
#include "sync/park_slot.hpp"

namespace ssq {

// True for queues whose core supports reservation install (the segmented
// core); such packs take the registering path below.
template <typename Q>
concept registering_channel = requires { requires Q::segmented_core; };

// ---------------------------------------------------------------------------
// Registering alternation over segmented cores. One seg_select_arbiter per
// round and one seg_select_wait per queue live on this stack frame; the
// core's pins protocol guarantees no partner is still inside the frame when
// a round ends (segment_queue.hpp).
// ---------------------------------------------------------------------------
namespace detail {

// How long polling alternation camps on one alternative before re-scanning.
inline constexpr nanoseconds camp_quantum = std::chrono::microseconds(200);

// One registration round: install a reservation in every queue (the token
// decides the side: empty = take, non-empty = put), wait for a winner,
// resolve everything. A round can also end with nothing matched because a
// partner's select poisoned us -- the caller loops and re-registers.
struct seg_round_ops {
  void *q;
  seg_reg_status (*reg)(void *, seg_select_wait &, item_token, deadline);
  bool (*fin)(void *, seg_select_wait &);
};

struct seg_round_result {
  bool matched = false;
  bool direct = false; // completed inside select_register (even if failed)
  std::size_t index = 0;
  item_token token = empty_token;
};

template <std::size_t n>
seg_round_result seg_select_round(const std::array<seg_round_ops, n> &ops,
                                  std::size_t start, item_token e,
                                  deadline dl) {
  seg_select_arbiter arb;
  std::array<seg_select_wait, n> regs;
  std::array<std::size_t, n> installed{};
  std::size_t n_installed = 0;
  seg_round_result out;
  bool completed = false;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t i = (start + k) % n;
    regs[i].arb = &arb;
    seg_reg_status st = ops[i].reg(ops[i].q, regs[i], e, dl);
    if (st == seg_reg_status::installed) {
      installed[n_installed++] = i;
      continue;
    }
    if (st == seg_reg_status::completed) {
      completed = true;
      out.matched = regs[i].result != empty_token;
      out.direct = true;
      out.index = i;
      out.token = regs[i].result;
    }
    // completed or lost: arbitration is decided, stop registering.
    break;
  }

  if (!completed && arb.winner.load(std::memory_order_seq_cst) == nullptr &&
      n_installed > 0) {
    auto done = [&] {
      if (arb.winner.load(std::memory_order_seq_cst) != nullptr) return true;
      for (std::size_t j = 0; j < n_installed; ++j)
        if (regs[installed[j]].poisoned.load(std::memory_order_seq_cst))
          return true;
      return false;
    };
    // Always next in line: each round has one arbiter, so the first partner
    // to commit on any registered cell completes this select.
    auto at_front = [] { return true; };
    (void)sync::spin_then_park(arb.slot, done, at_front,
                               sync::spin_policy::adaptive(), dl, nullptr);
    // Whether we woke or timed out, close the round: the sentinel makes
    // any not-yet-committed partner treat us as committed-elsewhere.
    void *expect = nullptr;
    arb.winner.compare_exchange_strong(expect,
                                       seg_select_arbiter::cancel_sentinel(),
                                       std::memory_order_seq_cst);
  }

  for (std::size_t j = 0; j < n_installed; ++j) {
    std::size_t i = installed[j];
    if (ops[i].fin(ops[i].q, regs[i]) && !completed) {
      out.matched = true;
      out.index = i;
      out.token = regs[i].result;
    }
  }
  // No partner may still be dereferencing this frame's records.
  while (arb.pins.load(std::memory_order_seq_cst) != 0) cpu_relax();
  return out;
}

template <typename... Qs>
std::array<seg_round_ops, sizeof...(Qs)> make_seg_ops(Qs &...queues) {
  return {seg_round_ops{
      static_cast<void *>(&queues),
      [](void *q, seg_select_wait &w, item_token e, deadline d) {
        return static_cast<Qs *>(q)->core().select_register(
            w, e, e != empty_token, d, nullptr);
      },
      [](void *q, seg_select_wait &w) {
        return static_cast<Qs *>(q)->core().select_finalize(w);
      }}...};
}

template <typename T, typename... Qs>
std::optional<std::pair<std::size_t, T>> select_take_registered(
    deadline dl, Qs &...queues) {
  using codec = item_codec<T>;
  constexpr std::size_t n = sizeof...(Qs);
  thread_local xoshiro256 rng{0x3c6ef372fe94f82bULL ^
                              reinterpret_cast<std::uintptr_t>(&rng)};
  auto ops = make_seg_ops(queues...);
  for (;;) {
    auto r = seg_select_round<n>(ops, static_cast<std::size_t>(rng.below(n)),
                                 empty_token, dl);
    if (r.matched)
      return std::make_pair(r.index, codec::decode_consume(r.token));
    if (r.direct || dl.expired_now()) return std::nullopt;
    // Poisoned round: our rendezvous went to another select. Go again.
  }
}

template <typename T, typename... Qs>
std::optional<std::size_t> select_put_registered(T &v, deadline dl,
                                                 Qs &...queues) {
  using codec = item_codec<T>;
  constexpr std::size_t n = sizeof...(Qs);
  thread_local xoshiro256 rng{0xa54ff53a5f1d36f1ULL ^
                              reinterpret_cast<std::uintptr_t>(&rng)};
  // Encoded once for all rounds; at most one reservation's match consumes
  // it (losing cells are poisoned, their stale token copies never read).
  item_token e = codec::encode(std::move(v));
  auto ops = make_seg_ops(queues...);
  for (;;) {
    auto r = seg_select_round<n>(ops, static_cast<std::size_t>(rng.below(n)),
                                 e, dl);
    if (r.matched) return r.index; // token consumed by the matched partner
    if (r.direct || dl.expired_now()) {
      v = codec::decode_consume(e); // hand the value back
      return std::nullopt;
    }
  }
}

} // namespace detail

// ---------------------------------------------------------------------------
// select_take: receive from whichever of N queues produces first.
// Queues need poll() -> optional<T> and try_take(deadline) -> optional<T>.
// Returns {index, value}, or nullopt on deadline expiry.
// ---------------------------------------------------------------------------
template <typename T, typename... Qs>
std::optional<std::pair<std::size_t, T>> select_take(deadline dl,
                                                     Qs &...queues) {
  constexpr std::size_t n = sizeof...(Qs);
  static_assert(n >= 1);
  if constexpr ((registering_channel<Qs> && ...)) {
    return detail::select_take_registered<T>(dl, queues...);
  } else {
  thread_local xoshiro256 rng{0x6a09e667f3bcc908ULL ^
                              reinterpret_cast<std::uintptr_t>(&rng)};

  // Type-erased probes over the heterogeneous queue pack.
  struct probe_t {
    void *q;
    std::optional<T> (*poll_now)(void *);
    std::optional<T> (*poll_until)(void *, deadline);
  };
  std::array<probe_t, n> probes = {probe_t{
      static_cast<void *>(&queues),
      [](void *q) { return static_cast<Qs *>(q)->poll(); },
      [](void *q, deadline d) {
        return static_cast<Qs *>(q)->try_take(d);
      }}...};

  for (;;) {
    // Fast scan: randomized rotation for fairness among alternatives.
    std::size_t start = static_cast<std::size_t>(rng.below(n));
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = (start + k) % n;
      if (auto v = probes[i].poll_now(probes[i].q))
        return std::make_pair(i, std::move(*v));
    }
    if (dl.expired_now()) return std::nullopt;
    // Camp on one alternative for a bounded quantum.
    std::size_t camp = static_cast<std::size_t>(rng.below(n));
    deadline q_dl = deadline::in(detail::camp_quantum);
    if (q_dl.when() > dl.when()) q_dl = dl;
    if (auto v = probes[camp].poll_until(probes[camp].q, q_dl))
      return std::make_pair(camp, std::move(*v));
  }
  }
}

// ---------------------------------------------------------------------------
// select_put: hand `v` to whichever of N queues accepts first. Queues need
// offer(T) -> bool and try_put_ref(T&, deadline) -> bool. Returns the index
// served, or nullopt on expiry (the value is handed back via `v`).
// ---------------------------------------------------------------------------
template <typename T, typename... Qs>
std::optional<std::size_t> select_put(T &v, deadline dl, Qs &...queues) {
  constexpr std::size_t n = sizeof...(Qs);
  static_assert(n >= 1);
  if constexpr ((registering_channel<Qs> && ...)) {
    return detail::select_put_registered(v, dl, queues...);
  } else {
  thread_local xoshiro256 rng{0xbb67ae8584caa73bULL ^
                              reinterpret_cast<std::uintptr_t>(&rng)};

  struct probe_t {
    void *q;
    bool (*offer_now)(void *, T &);
    bool (*offer_until)(void *, T &, deadline);
  };
  std::array<probe_t, n> probes = {probe_t{
      static_cast<void *>(&queues),
      [](void *q, T &val) {
        return static_cast<Qs *>(q)->try_put_ref(val, deadline::expired());
      },
      [](void *q, T &val, deadline d) {
        return static_cast<Qs *>(q)->try_put_ref(val, d);
      }}...};

  for (;;) {
    std::size_t start = static_cast<std::size_t>(rng.below(n));
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = (start + k) % n;
      if (probes[i].offer_now(probes[i].q, v)) return i;
    }
    if (dl.expired_now()) return std::nullopt;
    std::size_t camp = static_cast<std::size_t>(rng.below(n));
    deadline q_dl = deadline::in(detail::camp_quantum);
    if (q_dl.when() > dl.when()) q_dl = dl;
    if (probes[camp].offer_until(probes[camp].q, v, q_dl)) return camp;
  }
  }
}

} // namespace ssq
