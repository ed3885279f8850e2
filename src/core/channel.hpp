// channel<T>: a closeable CSP channel over the synchronous queue.
//
// The paper (§1) positions synchronous queues as "the central
// synchronization primitive of Hoare's CSP"; this adapter supplies the two
// affordances CSP programs expect on top of raw put/take vocabulary:
//
//   * send/recv naming with value semantics, and
//   * close(): after close, senders fail fast and every blocked party
//     drains out with "channel closed" rather than hanging forever.
//
// Close is implemented with a channel-wide interrupt token: blocked
// operations carry it and observe closure within one park quantum; arriving
// operations check the flag up front. In-flight pairings that have already
// matched complete normally (close is not an abort of completed handoffs).
#pragma once

#include <optional>
#include <utility>

#include "core/synchronous_queue.hpp"

namespace ssq {

template <typename T, bool Fair = true, core_kind Core = core_kind::linked>
class channel {
 public:
  channel() = default;
  channel(const channel &) = delete;
  channel &operator=(const channel &) = delete;

  // Blocks until received or the channel closes. Returns false (with the
  // value conceptually discarded) iff the channel is/was closed.
  bool send(T v) {
    if (closed()) return false;
    return q_.try_put(std::move(v), deadline::unbounded(), &closer_);
  }

  // Blocks until a value arrives or the channel closes.
  std::optional<T> recv() {
    if (closed()) {
      // Even after close, drain anything a concurrent sender already
      // committed (it paired before observing closure).
      return q_.poll();
    }
    auto v = q_.try_take(deadline::unbounded(), &closer_);
    if (!v && closed()) return q_.poll();
    return v;
  }

  // Non-blocking / timed forms.
  bool try_send(T v, deadline dl = deadline::expired()) {
    if (closed()) return false;
    return q_.try_put(std::move(v), dl, &closer_);
  }

  std::optional<T> try_recv(deadline dl = deadline::expired()) {
    auto v = q_.try_take(dl, &closer_);
    if (!v && closed()) return q_.poll();
    return v;
  }

  // Wake every blocked sender and receiver; all subsequent sends fail and
  // receives return nullopt. Idempotent.
  void close() noexcept { closer_.interrupt(); }

  bool closed() const noexcept { return closer_.interrupted(); }

  auto &queue() noexcept { return q_; }

 private:
  synchronous_queue<T, Fair, mem::pooled_hp_reclaimer, Core> q_;
  sync::interrupt_token closer_;
};

// CSP over the segmented core: reservation-based select, 1/64th the
// reclaimer traffic (core/segment_queue.hpp).
template <typename T>
using segmented_channel = channel<T, true, core_kind::segmented>;

} // namespace ssq
