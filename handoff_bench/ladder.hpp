// The layer ladder: the rpc shape (one client, one server, request/reply)
// rebuilt one layer at a time, each rung adding one layer over the rung
// below it, at one fixed op count.
//
//   futex      bare sync::futex_wait / futex_wake_one ping-pong (the floor)
//   park_slot  park_slot + spin_then_park(spin_policy::adaptive()), front
//              budget
//   park_back  the same with the back budget: what a waiter that is not
//              "at the front" gets (a side rung, not in the chain)
//   xfer       segment_queue::xfer, without facade or codec
//   facade     segmented_synchronous_queue put/take: the rpc workload
//   channel    segmented_channel send/recv
//   select     the server select_take()s over the request channel and an
//              idle control channel
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/diagnostics.hpp"
#include "trace.hpp"

namespace hb {

struct rung {
  const char *name = "";
  const char *metric = "";  // per-layer metric carrying this rung's p50
  const char *below = "";   // rung it adds over ("" for the floor)
  histogram rtt;            // client round trips after the warm-up
  std::uint64_t n = 0, failed = 0;
  ssq::diag::snapshot delta; // counters over the measured round trips
  std::unique_ptr<tracer> client, server;
};

std::vector<std::unique_ptr<rung>> run_ladder(std::uint64_t seed,
                                              std::uint64_t round_trips);

} // namespace hb
