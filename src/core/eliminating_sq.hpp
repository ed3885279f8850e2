// eliminating_sq<T>: the unfair synchronous queue with an elimination-arena
// front end -- the extension the paper sketches and leaves to future work
// (§5): "the threads must eventually fall back ... to try the main
// location."
//
// Every blocking operation first spends a short, bounded patience trying to
// pair up in the arena; only on failure does it fall back to the dual
// stack. The paper predicts ("In preliminary work, we have found
// elimination to be beneficial only in cases of artificially extreme
// contention") -- and bench/ablation_elimination measures -- that the arena
// detour costs latency at low contention and only pays off when the main
// head pointer is saturated.
#pragma once

#include <optional>
#include <utility>

#include "core/elimination_arena.hpp"
#include "core/transfer_stack.hpp"
#include "core/wait_kind.hpp"
#include "support/codec.hpp"

namespace ssq {

template <typename T, typename Reclaimer = mem::pooled_hp_reclaimer>
class eliminating_sq {
  using codec = item_codec<T>;

 public:
  static constexpr bool supports_timed = true;
  static constexpr bool is_fair = false;

  explicit eliminating_sq(
      nanoseconds arena_patience = std::chrono::microseconds(10),
      sync::spin_policy pol = sync::spin_policy::adaptive())
      : pol_(pol), patience_(arena_patience), core_(pol) {
    core_.set_token_disposer(&dispose_token);
  }

  void put(T v) {
    item_token t = codec::encode(std::move(v));
    if (arena_.try_eliminate(t, true, deadline::in(patience_), pol_) !=
        empty_token)
      return;
    core_.xfer(t, true, wait_kind::sync);
  }

  T take() {
    item_token r =
        arena_.try_eliminate(empty_token, false, deadline::in(patience_), pol_);
    if (r == empty_token) r = core_.xfer(empty_token, false, wait_kind::sync);
    return codec::decode_consume(r);
  }

  bool offer(T v, deadline dl = deadline::expired()) {
    item_token t = codec::encode(std::move(v));
    // Non-blocking ("now") operations skip the arena: they must observe
    // only *already waiting* counterparts, and an arena visit could miss
    // one parked in the main structure. Timed operations spend the smaller
    // of arena patience and their own deadline in the arena first, so the
    // elimination path stays covered by the timed checked workloads.
    wait_kind wk =
        (dl == deadline::expired()) ? wait_kind::now : wait_kind::timed;
    if (wk == wait_kind::timed &&
        arena_.try_eliminate(t, true, arena_deadline(dl), pol_) !=
            empty_token)
      return true;
    item_token r = core_.xfer(t, true, wk, dl);
    if (r == empty_token) {
      codec::dispose(t);
      return false;
    }
    return true;
  }

  std::optional<T> poll(deadline dl = deadline::expired()) {
    wait_kind wk =
        (dl == deadline::expired()) ? wait_kind::now : wait_kind::timed;
    if (wk == wait_kind::timed) {
      item_token e =
          arena_.try_eliminate(empty_token, false, arena_deadline(dl), pol_);
      if (e != empty_token) return codec::decode_consume(e);
    }
    item_token r = core_.xfer(empty_token, false, wk, dl);
    if (r == empty_token) return std::nullopt;
    return codec::decode_consume(r);
  }

 private:
  static void dispose_token(item_token t) { codec::dispose(t); }

  // Arena visit for a timed op: bounded by both the arena patience and the
  // caller's own deadline (patience must never be extended).
  deadline arena_deadline(deadline dl) const {
    deadline a = deadline::in(patience_);
    return (dl.when() < a.when()) ? dl : a;
  }

  sync::spin_policy pol_;
  nanoseconds patience_;
  elimination_arena<16> arena_;
  transfer_stack<Reclaimer> core_;
};

} // namespace ssq
