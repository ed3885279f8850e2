// Spin-then-park policy (paper §3.3, "Pragmatics").
//
// "On multiprocessors (only), nodes next in line for fulfillment spin
// briefly (about one-quarter the time of a typical context switch) before
// parking. ... busy-wait is useless overhead on a uniprocessor."
//
// The policy object is threaded through every blocking operation so that the
// ablation bench (bench/ablation_spin) can compare spin-only, park-only, and
// spin-then-park behaviour under identical workloads.
#pragma once

#include <thread>

#include "support/relax.hpp"

namespace ssq::sync {

struct spin_policy {
  // Spin iterations to attempt before parking when this thread's node is
  // next in line for fulfillment.
  int front_spins = 0;
  // Spin iterations when not at the front (the JDK uses 16x fewer; we keep
  // the same ratio).
  int back_spins = 0;
  // Insert a sched_yield every `yield_every` relax iterations (0 = never).
  // On an oversubscribed machine, yielding lets the counterpart run.
  int yield_every = 8;

  // The library default: spin briefly on multiprocessors, not at all on a
  // uniprocessor -- exactly the paper's policy. The CPU count is read once:
  // hardware_concurrency() reads sysfs on glibc, microseconds per call, and
  // every default constructor and registering select round calls this.
  static spin_policy adaptive() noexcept {
    static const unsigned ncpu = std::thread::hardware_concurrency();
    if (ncpu <= 1) return spin_policy{0, 0, 1};
    return spin_policy{512, 32, 64};
  }

  static spin_policy park_only() noexcept { return spin_policy{0, 0, 1}; }

  // Never park: classic busy-wait (used by the Listing 5/6 "basic"
  // reference implementations and by the spin ablation). Still yields so
  // that a uniprocessor host makes progress.
  static spin_policy spin_only() noexcept { return spin_policy{-1, -1, 16}; }

  bool unbounded_spin() const noexcept { return front_spins < 0; }

  // One spin-loop step; `i` is the iteration index.
  void relax(int i) const noexcept {
    if (yield_every > 0 && (i + 1) % yield_every == 0)
      std::this_thread::yield();
    else
      cpu_relax();
  }
};

} // namespace ssq::sync
