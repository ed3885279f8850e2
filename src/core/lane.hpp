// Lane attribution: which pairing mechanism matched an operation.
//
// The linearizability oracle (check/oracle.hpp) checks FIFO *per lane* for
// cores that pair through more than one mechanism: eliminating_sq pairs
// either in its FIFO core (lane 0) or in the elimination arena, and an arena
// handoff may overtake older parked waiters, so global FIFO is given up and
// the relaxed spec needs to know which lane paired each operation. Such
// cores publish their pairing lane here, thread-locally, immediately before
// returning; the checked-ops wrappers (check/driver.hpp) read it into the
// history event.
//
// Elimination-arena handoffs bypass the lanes entirely and are exempt from
// the per-lane FIFO check (they are still covered by exact pairing and
// exchange symmetry).
#pragma once

#include <cstdint>

namespace ssq {

// No lane recorded (single-lane cores, or an op that missed/cancelled).
inline constexpr std::uint32_t lane_unattributed = 0xFFFFFFFFu;
// Paired through an elimination arena, not a lane queue (FIFO-exempt).
// Real lane indices must stay below this.
inline constexpr std::uint32_t lane_elim = 0xFFFFFFFEu;

// Set by lane-attributed cores on every completed transfer; consumed by the
// checked-ops wrappers. Plain thread-local (no synchronization needed: it is
// written and read by the same thread within one operation).
inline thread_local std::uint32_t tl_last_lane = lane_unattributed;

} // namespace ssq
