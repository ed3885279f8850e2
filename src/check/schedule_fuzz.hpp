// Schedule-perturbation points for the correctness harness (ssq::check).
//
// Lincheck-style model checkers own the scheduler; we do not. What we can
// do is widen the race windows the scheduler rarely opens: at labeled
// interleaving points inside the cores (publication CAS, cancellation CAS,
// clean()/clean_me handoff, park/signal edges) a seeded per-thread RNG
// occasionally yields or sleeps, so that "the fulfiller ran between these
// two instructions" stops being a one-in-a-billion event and starts being a
// per-second event. Combined with the history oracle (tests/check/oracle.hpp)
// this is the practical equivalent of schedule exploration for a 30-second
// stress run.
//
// Cost discipline: unless the build defines SSQ_SCHEDULE_FUZZ (CMake option
// of the same name), SSQ_INTERLEAVE(label) expands to ((void)0) -- zero
// code, zero data, zero branches; docs/testing.md carries the ablation
// note. When compiled in, each point is one relaxed load of the enabled
// flag plus (only when enabled) one RNG draw.
//
// Determinism caveat: the seed makes the *perturbation stream* per thread
// reproducible, not the whole schedule (the OS still interleaves). In
// practice re-running a failing seed reproduces quickly because the seed
// controls both the workload mix and the perturbation dice.
#pragma once

namespace ssq::fuzz {
// True when the library was built with the perturbation points compiled in
// (CMake -DSSQ_SCHEDULE_FUZZ=ON). Lets tools report which mode they run in.
bool compiled_with_schedule_fuzz() noexcept;
} // namespace ssq::fuzz

#if defined(SSQ_SCHEDULE_FUZZ)

#include <atomic>
#include <cstdint>

namespace ssq::fuzz {

struct config {
  std::uint64_t seed = 1;
  // Per-point probabilities in permille (out of 1000).
  std::uint32_t yield_permille = 20; // std::this_thread::yield()
  std::uint32_t sleep_permille = 2;  // sleep_for(random 0..max_sleep_us)
  std::uint32_t max_sleep_us = 50;
};

// Process-wide switch. enable() may be called again to re-seed between
// bounded runs; it must not race with threads inside perturbation points
// (call it while the workload threads are quiescent).
void enable(const config &c) noexcept;
void disable() noexcept;
bool enabled() noexcept;

// Diagnostics: how many points fired (yield or sleep) since enable().
std::uint64_t perturbations() noexcept;

// Internals -----------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
void perturb_slow(const char *label) noexcept;
} // namespace detail

inline void maybe_perturb(const char *label) noexcept {
  if (detail::g_enabled.load(std::memory_order_relaxed)) [[unlikely]]
    detail::perturb_slow(label);
}

} // namespace ssq::fuzz

#define SSQ_INTERLEAVE(label) ::ssq::fuzz::maybe_perturb(label)

#else // !SSQ_SCHEDULE_FUZZ

#define SSQ_INTERLEAVE(label) ((void)0)

#endif
