// Cooperative interruption, modeling Java's Thread.interrupt() as used by
// ThreadPoolExecutor to retire idle workers and implement shutdownNow().
//
// A blocking operation that is given an interrupt_token periodically observes
// it while parked (bounded-quantum parking) and returns "interrupted" when
// the flag is set. This is cooperative-only by design: asynchronously waking
// an arbitrary parked thread would require the interrupter to dereference the
// node the waiter parked on, whose lifetime the interrupter does not protect.
// See DESIGN.md ("Substitutions").
#pragma once

#include <atomic>

#include "support/time.hpp"

namespace ssq::sync {

class interrupt_token {
 public:
  interrupt_token() = default;
  interrupt_token(const interrupt_token &) = delete;
  interrupt_token &operator=(const interrupt_token &) = delete;

  // Request interruption. Threads blocked with this token observe it within
  // one park quantum.
  void interrupt() noexcept { flag_.store(true); }

  bool interrupted() const noexcept { return flag_.load(); }

  // How often a parked thread wakes to look at the flag. 2ms: small enough
  // that shutdown feels immediate, large enough that an idle worker parked
  // on a 60s keep-alive costs ~500 wakeups/s only while a token is attached
  // (untimed/untokened parks never chunk).
  static constexpr nanoseconds park_quantum() noexcept {
    return std::chrono::milliseconds(2);
  }

 private:
  std::atomic<bool> flag_{false};
};

} // namespace ssq::sync
