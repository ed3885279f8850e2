// The checked stress driver shared by tools/torture --check=linearize and
// the bounded ctest suites (tests/test_linearize_check.cpp).
//
// One code path generates the workload (seeded random mix of sync / timed /
// now / async operations across a configurable thread count), records every
// operation into a check::recorder, drains the structure, and hands the
// history to the oracle. tools/torture adds periodic vitals and failing-
// history dumps on top; the tests call run_* directly with bounded op
// budgets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "check/oracle.hpp"
#include "support/rng.hpp"
#include "support/time.hpp"
#include "sync/interrupt.hpp"

namespace ssq::check {

// Type-erased operation surface over one implementation. The wrappers
// classify their own failures (miss vs timeout vs interrupted) because only
// they know whether an interrupt token was consulted.
struct checked_ops {
  // Offer `v` with the given wait_kind/deadline; returns the outcome.
  std::function<op_status(std::uint64_t v, wait_kind wk, deadline dl)> produce;
  // Poll/take; returns outcome and the value when ok.
  std::function<std::pair<op_status, std::uint64_t>(wait_kind wk, deadline dl)>
      consume;
  // Non-null only for structures with an async (buffering) producer mode.
  std::function<void(std::uint64_t v)> produce_async;
  // Drain one already-buffered/committed item, non-blocking-ish; nullopt
  // when empty. Used by the post-run drain loop.
  std::function<std::optional<std::uint64_t>()> drain_one;
  bool fair = false;
};

struct driver_cfg {
  int threads = 8;
  std::uint64_t seed = 1;
  std::chrono::milliseconds duration{1000};
  // Stop a thread after this many operations (0 = unbounded). Also bounds
  // history memory: the recorder preallocates this many events per thread.
  std::uint64_t max_ops_per_thread = 200000;
  // Out of 100: how often a producing thread uses async mode (if offered).
  int async_pct = 25;
  // Patience ceiling for timed ops, microseconds.
  std::uint64_t max_patience_us = 2000;
};

struct driver_stats {
  std::atomic<std::uint64_t> produced{0}, consumed{0}, timeouts{0},
      misses{0}, interrupts{0};
};

// Run the mixed workload against `ops`, recording into `rec` (which must
// have threads+1 logs: the extra log holds the drain phase's consumes).
// Returns the sequence counter's final value (== number of values minted).
inline std::uint64_t run_mixed(const checked_ops &ops, const driver_cfg &cfg,
                               recorder &rec, driver_stats *stats = nullptr,
                               std::atomic<bool> *external_stop = nullptr) {
  std::atomic<bool> local_stop{false};
  std::atomic<bool> &stop = external_stop ? *external_stop : local_stop;
  std::atomic<std::uint64_t> seq{0};

  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(cfg.threads));
  for (int t = 0; t < cfg.threads; ++t) {
    ts.emplace_back([&, t] {
      xoshiro256 rng(cfg.seed * 1099511628211ULL +
                     static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
      const bool lean_producer = (t % 2 == 0);
      std::uint64_t done_ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (cfg.max_ops_per_thread && done_ops >= cfg.max_ops_per_thread)
          break;
        ++done_ops;
        const bool produce = rng.chance(lean_producer ? 3 : 1, 4);
        // Pick a waiting discipline. "sync" is emulated with a generous
        // timed wait so shutdown stays responsive; it is still recorded as
        // wait_kind::timed (the oracle's rules are identical).
        wait_kind wk;
        deadline dl = deadline::expired();
        switch (rng.below(4)) {
          case 0:
            wk = wait_kind::now;
            break;
          case 1: // zero/short patience: exercises the now-equivalence edge
            wk = wait_kind::timed;
            dl = deadline::in(
                std::chrono::microseconds(rng.below(cfg.max_patience_us)));
            break;
          default:
            wk = wait_kind::timed;
            dl = deadline::in(std::chrono::milliseconds(20));
            break;
        }
        if (produce) {
          const bool go_async = ops.produce_async &&
                                rng.below(100) <
                                    static_cast<std::uint64_t>(cfg.async_pct);
          const std::uint64_t v = seq.fetch_add(1) + 1;
          if (go_async) {
            op_scope sc(rec, static_cast<std::size_t>(t), op_role::produce,
                        wait_kind::async);
            ops.produce_async(v);
            sc.commit(op_status::ok, v, 0);
            if (stats) stats->produced.fetch_add(1, std::memory_order_relaxed);
          } else {
            op_scope sc(rec, static_cast<std::size_t>(t), op_role::produce,
                        wk);
            op_status st = ops.produce(v, wk, dl);
            sc.commit(st, v, 0);
            if (stats) {
              if (st == op_status::ok)
                stats->produced.fetch_add(1, std::memory_order_relaxed);
              else if (st == op_status::timeout)
                stats->timeouts.fetch_add(1, std::memory_order_relaxed);
              else if (st == op_status::miss)
                stats->misses.fetch_add(1, std::memory_order_relaxed);
              else
                stats->interrupts.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else {
          op_scope sc(rec, static_cast<std::size_t>(t), op_role::consume, wk);
          auto [st, got] = ops.consume(wk, dl);
          sc.commit(st, 0, st == op_status::ok ? got : 0);
          if (stats) {
            if (st == op_status::ok)
              stats->consumed.fetch_add(1, std::memory_order_relaxed);
            else if (st == op_status::timeout)
              stats->timeouts.fetch_add(1, std::memory_order_relaxed);
            else if (st == op_status::miss)
              stats->misses.fetch_add(1, std::memory_order_relaxed);
            else
              stats->interrupts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  if (!external_stop) {
    std::this_thread::sleep_for(cfg.duration);
    stop.store(true, std::memory_order_release);
  }
  for (auto &t : ts) t.join();

  // Drain phase: absorb values whose producer succeeded as consumers shut
  // down, and any async-buffered leftovers. Logged under the extra tid.
  if (ops.drain_one) {
    const std::size_t drain_tid = static_cast<std::size_t>(cfg.threads);
    for (;;) {
      op_scope sc(rec, drain_tid, op_role::consume, wait_kind::timed);
      auto got = ops.drain_one();
      if (!got) {
        sc.commit(op_status::timeout, 0, 0);
        break;
      }
      sc.commit(op_status::ok, 0, *got);
      if (stats) stats->consumed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return seq.load();
}

// Build checked_ops over any queue-shaped implementation exposing
//   bool offer(uint64_t, deadline [, interrupt_token*])
//   std::optional<uint64_t> poll(deadline [, interrupt_token*])
// (the surface torture always used). `tok`, when non-null and the
// implementation accepts tokens, marks failures of timed ops as
// `interrupted` once the token fires; baselines without token overloads
// (naive, eliminating) are driven without one.
template <typename Q>
checked_ops make_checked_ops(std::shared_ptr<Q> q, bool fair,
                             sync::interrupt_token *tok = nullptr) {
  constexpr bool has_tok =
      requires(Q &qq, sync::interrupt_token *t) {
        qq.offer(std::uint64_t{1}, deadline::expired(), t);
        qq.poll(deadline::expired(), t);
      };
  checked_ops o;
  o.fair = fair;
  o.produce = [q, tok](std::uint64_t v, wait_kind wk, deadline dl) {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    bool ok;
    if constexpr (has_tok)
      ok = q->offer(v, use, tok);
    else
      ok = q->offer(v, use);
    if (ok) return op_status::ok;
    if (wk == wait_kind::now) return op_status::miss;
    return (tok && tok->interrupted()) ? op_status::interrupted
                                       : op_status::timeout;
  };
  o.consume = [q, tok](wait_kind wk, deadline dl)
      -> std::pair<op_status, std::uint64_t> {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    std::optional<std::uint64_t> got;
    if constexpr (has_tok)
      got = q->poll(use, tok);
    else
      got = q->poll(use);
    if (got) return {op_status::ok, *got};
    if (wk == wait_kind::now) return {op_status::miss, 0};
    return {(tok && tok->interrupted()) ? op_status::interrupted
                                        : op_status::timeout,
            0};
  };
  o.drain_one = [q] {
    return q->poll(deadline::in(std::chrono::milliseconds(50)));
  };
  return o;
}

// Build checked_ops over a TransferQueue-shaped implementation:
//   void put(uint64_t)                       -- asynchronous, cannot fail
//   bool try_transfer(uint64_t, deadline)    -- synchronous producer
//   std::optional<uint64_t> poll(deadline)
// (linked_transfer_queue). The async path is what gives the FIFO check its
// teeth: async producers return before delivery, so their pair intervals
// are not forced open by synchrony alone.
template <typename Q>
checked_ops make_checked_transfer_ops(std::shared_ptr<Q> q) {
  checked_ops o;
  o.fair = true;
  o.produce = [q](std::uint64_t v, wait_kind wk, deadline dl) {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    if (q->try_transfer(v, use)) return op_status::ok;
    return wk == wait_kind::now ? op_status::miss : op_status::timeout;
  };
  o.produce_async = [q](std::uint64_t v) { q->put(v); };
  o.consume = [q](wait_kind wk, deadline dl)
      -> std::pair<op_status, std::uint64_t> {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    auto got = q->poll(use);
    if (got) return {op_status::ok, *got};
    return {wk == wait_kind::now ? op_status::miss : op_status::timeout, 0};
  };
  o.drain_one = [q] {
    return q->poll(deadline::in(std::chrono::milliseconds(50)));
  };
  return o;
}

// Build checked_ops over a channel-shaped implementation:
//   bool try_send(uint64_t, deadline), std::optional<uint64_t>
//   try_recv(deadline), bool closed().
template <typename Ch>
checked_ops make_checked_channel_ops(std::shared_ptr<Ch> ch) {
  checked_ops o;
  o.fair = true;
  o.produce = [ch](std::uint64_t v, wait_kind wk, deadline dl) {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    if (ch->try_send(v, use)) return op_status::ok;
    if (ch->closed()) return op_status::interrupted;
    return wk == wait_kind::now ? op_status::miss : op_status::timeout;
  };
  o.consume = [ch](wait_kind wk, deadline dl)
      -> std::pair<op_status, std::uint64_t> {
    deadline use = (wk == wait_kind::now) ? deadline::expired() : dl;
    auto got = ch->try_recv(use);
    if (got) return {op_status::ok, *got};
    if (ch->closed()) return {op_status::interrupted, 0};
    return {wk == wait_kind::now ? op_status::miss : op_status::timeout, 0};
  };
  o.drain_one = [ch] {
    return ch->try_recv(deadline::in(std::chrono::milliseconds(50)));
  };
  return o;
}

} // namespace ssq::check
