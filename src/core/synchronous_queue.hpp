// synchronous_queue<T, Fair>: the library's primary public type -- the
// paper's contribution behind a typed, RAII-friendly interface.
//
//   * Fair = true  -> synchronous dual queue (strict FIFO pairing)
//   * Fair = false -> synchronous dual stack (LIFO pairing; better locality,
//                     the paper's "unfair" mode)
//
// A third template knob picks the *core* carrying the protocol:
//
//   * core_kind::linked    -> the paper's linked dual structures (default)
//   * core_kind::segmented -> the CQS-style waiter-cell segment core
//                             (core/segment_queue.hpp; Fair only -- cell
//                             indices are FIFO by construction)
//
// Operations (all thread-safe, lock-free, contention-free in the paper's
// sense):
//
//   put(v)                 block until a consumer takes v
//   take()                 block until a producer hands over a value
//   offer(v)               hand v over only if a consumer is already waiting
//   poll()                 take a value only if a producer is already waiting
//   try_put(v, d[, tok])   put with patience d; false on timeout/interrupt
//   try_take(d[, tok])     take with patience d; nullopt on timeout/interrupt
//
// On a failed try_put the value is returned to the caller via the optional
// out-parameter-free contract: the T is moved back out of the internal token
// (boxed codecs) or was never moved at all (inline codecs).
#pragma once

#include <optional>
#include <type_traits>
#include <utility>

#include "core/segment_queue.hpp"
#include "core/transfer_queue.hpp"
#include "core/transfer_stack.hpp"
#include "core/wait_kind.hpp"
#include "support/codec.hpp"

namespace ssq {

enum class core_kind { linked, segmented };

template <typename T, bool Fair = false,
          typename Reclaimer = mem::pooled_hp_reclaimer,
          core_kind Core = core_kind::linked>
class synchronous_queue {
  static_assert(Core != core_kind::segmented || Fair,
                "the segmented core pairs by FIFO cell index; instantiate it "
                "with Fair = true");
  using linked_t = std::conditional_t<Fair, transfer_queue<Reclaimer>,
                                      transfer_stack<Reclaimer>>;
  using core_t = std::conditional_t<Core == core_kind::segmented,
                                    segment_queue<Reclaimer>, linked_t>;
  using codec = item_codec<T>;

 public:
  static constexpr bool supports_timed = true;
  static constexpr bool is_fair = Fair;
  // select dispatches on this: segmented cores take reservation installs
  // instead of the polling quantum loop (core/select.hpp).
  static constexpr bool segmented_core = Core == core_kind::segmented;

  synchronous_queue() : synchronous_queue(sync::spin_policy::adaptive()) {}

  explicit synchronous_queue(sync::spin_policy pol) : core_(pol) {
    core_.set_token_disposer(&dispose_token);
  }

  synchronous_queue(sync::spin_policy pol, Reclaimer rec)
      : core_(pol, std::move(rec)) {
    core_.set_token_disposer(&dispose_token);
  }

  // Block until a consumer accepts the value.
  void put(T v) {
    item_token t = codec::encode(std::move(v));
    item_token r = core_.xfer(t, true, wait_kind::sync);
    SSQ_ASSERT(r != empty_token, "untimed put cannot fail");
  }

  // Block until a producer supplies a value.
  T take() {
    item_token r = core_.xfer(empty_token, false, wait_kind::sync);
    SSQ_ASSERT(r != empty_token, "untimed take cannot fail");
    return codec::decode_consume(r);
  }

  // Non-blocking handoff: succeeds only if a consumer is already waiting.
  bool offer(T v) { return try_put(std::move(v), deadline::expired()); }

  // Non-blocking receive: succeeds only if a producer is already waiting.
  std::optional<T> poll() { return try_take(deadline::expired()); }

  // Timed/interruptible handoff.
  bool try_put(T v, deadline dl, sync::interrupt_token *tok = nullptr) {
    item_token t = codec::encode(std::move(v));
    wait_kind wk =
        (dl == deadline::expired()) ? wait_kind::now : wait_kind::timed;
    item_token r = core_.xfer(t, true, wk, dl, tok);
    if (r == empty_token) {
      codec::dispose(t); // ownership stayed with us
      return false;
    }
    return true;
  }

  template <typename Rep, typename Period>
  bool try_put(T v, std::chrono::duration<Rep, Period> d,
               sync::interrupt_token *tok = nullptr) {
    return try_put(std::move(v), deadline::in(d), tok);
  }

  // Like try_put, but on failure the value is handed back through `v`
  // instead of being destroyed -- what an executor needs to reroute an
  // unaccepted task to a freshly spawned worker.
  bool try_put_ref(T &v, deadline dl, sync::interrupt_token *tok = nullptr) {
    item_token t = codec::encode(std::move(v));
    wait_kind wk =
        (dl == deadline::expired()) ? wait_kind::now : wait_kind::timed;
    item_token r = core_.xfer(t, true, wk, dl, tok);
    if (r == empty_token) {
      v = codec::decode_consume(t); // move it back out
      return false;
    }
    return true;
  }

  // Timed/interruptible receive.
  std::optional<T> try_take(deadline dl, sync::interrupt_token *tok = nullptr) {
    wait_kind wk =
        (dl == deadline::expired()) ? wait_kind::now : wait_kind::timed;
    item_token r = core_.xfer(empty_token, false, wk, dl, tok);
    if (r == empty_token) return std::nullopt;
    return codec::decode_consume(r);
  }

  template <typename Rep, typename Period>
  std::optional<T> try_take(std::chrono::duration<Rep, Period> d,
                            sync::interrupt_token *tok = nullptr) {
    return try_take(deadline::in(d), tok);
  }

  // Adapter aliases used by the cross-implementation battery/benches.
  bool offer(T v, deadline dl, sync::interrupt_token *tok = nullptr) {
    return try_put(std::move(v), dl, tok);
  }
  std::optional<T> poll(deadline dl, sync::interrupt_token *tok = nullptr) {
    return try_take(dl, tok);
  }

  // ------------------------------------------------------------------
  // JDK SynchronousQueue conformance surface: a synchronous queue "does
  // not have any internal capacity, not even a capacity of one", so the
  // Collection-view methods are constants by specification.
  // ------------------------------------------------------------------

  // Always zero (the queue never *contains* elements; waiting nodes are
  // not contents).
  static constexpr std::size_t size() noexcept { return 0; }
  static constexpr std::size_t remaining_capacity() noexcept { return 0; }
  // Always empty in the Collection sense (contrast is_empty(), which
  // reports whether *waiters* are present).
  static constexpr bool empty() noexcept { return true; }
  // Peek is specified to return nothing: an element only ever exists in
  // the instant of a transfer.
  static constexpr std::optional<T> peek() noexcept { return std::nullopt; }

  // Move up to `max` items from already-waiting producers into `out`
  // (JDK drainTo: "transfers elements ... only if a producer is waiting").
  template <typename OutIt>
  std::size_t drain_to(OutIt out, std::size_t max = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max) {
      auto v = poll();
      if (!v) break;
      *out++ = std::move(*v);
      ++n;
    }
    return n;
  }

  // Diagnostics (racy; see core docs).
  bool is_empty() const noexcept { return core_.is_empty(); }
  std::size_t unsafe_length() const noexcept { return core_.unsafe_length(); }

  core_t &core() noexcept { return core_; }

 private:
  static void dispose_token(item_token t) { codec::dispose(t); }

  core_t core_;
};

// Convenience aliases matching the paper's naming.
template <typename T, typename R = mem::pooled_hp_reclaimer>
using fair_synchronous_queue = synchronous_queue<T, true, R>;

template <typename T, typename R = mem::pooled_hp_reclaimer>
using unfair_synchronous_queue = synchronous_queue<T, false, R>;

template <typename T, typename R = mem::pooled_hp_reclaimer>
using segmented_synchronous_queue =
    synchronous_queue<T, true, R, core_kind::segmented>;

} // namespace ssq
