// The synchronous-queue sequential oracle: validates a recorded history
// (check/history.hpp) against the specification of a synchronous queue.
//
// Checked properties (all sound: a reported violation is a real one, given
// the stamp guarantee documented in history.hpp):
//
//  P1  Exact pairing. Every value received by a successful consume was
//      offered by exactly one successful produce, and every successful
//      produce's value is received by exactly one successful consume
//      (after the workload's drain phase). No loss, no duplication.
//
//  P2  Cancelled operations never transfer. A produce that reported
//      timeout/miss/interrupted must not have its value show up anywhere;
//      a consume that reported failure must not have received a value.
//      (The facades enforce half of this by construction -- a failed op
//      returns no value -- so the teeth of P2 is the produce side: a value
//      both "returned to the caller" and delivered would be a duplication
//      of ownership, exactly the cancellation-vs-fulfillment race bug
//      class.)
//
//  P3  Synchrony. For every matched pair, the produce and consume
//      intervals must overlap: produce.invoke < consume.ret and
//      consume.invoke < produce.ret ("threads shake hands and leave in
//      pairs", paper SS1). Exempt: wait_kind::async producers, which by
//      contract leave before the handshake (only produce.invoke <
//      consume.ret is required).
//
//  P4  FIFO pairing (fair variants). If produce A provably precedes
//      produce B (A.ret < B.inv, so A's enqueue linearized first), their
//      deliveries must be orderable A-before-B. Each delivery lies inside
//      its pair's interval intersection (lb, ub); the order is impossible
//      -- hence a violation -- exactly when lb(A) >= ub(B). The symmetric
//      check runs on the consumer side. Both are O(n log n) sweeps.
//
// What this oracle deliberately does not do: a Wing&Gong-style search for
// a full linearization. For the dual queues the properties above pin the
// observable spec (pairing, cancellation atomicity, synchrony, FIFO) while
// staying checkable on multi-million-event histories in one pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/history.hpp"

namespace ssq::check {

struct rules {
  // Check P4 (produce-side and consume-side FIFO pairing order).
  bool fifo = false;
  // Check P3. On by default; every synchronous queue requires it.
  bool synchrony = true;
  // Treat unconsumed successful produces as violations (P1 second half).
  // Workloads that drain the structure before collecting set this true;
  // bounded runs that may abandon buffered async items set it false.
  bool require_all_consumed = true;
};

struct violation {
  std::string what; // human-readable, one line
  event a;          // offending event
  event b;          // counterpart (thread==UINT32_MAX when n/a)
};

struct report {
  std::vector<violation> violations;
  std::size_t events = 0;
  std::size_t pairs = 0;
  std::size_t cancelled = 0;
  bool ok() const noexcept { return violations.empty(); }
};

namespace detail {

inline event none() {
  event e;
  e.thread = ~std::uint32_t{0};
  return e;
}

inline void add(report &r, std::string what, const event &a,
                const event &b) {
  if (r.violations.size() < 256) // cap: a broken run floods otherwise
    r.violations.push_back({std::move(what), a, b});
}

struct pair_iv {
  std::uint64_t p_inv, p_ret, c_inv, c_ret;
  bool p_async;
  const event *p, *c;
  // Delivery lies strictly inside (lb, ub) in stamp order.
  std::uint64_t lb() const noexcept {
    return p_inv > c_inv ? p_inv : c_inv;
  }
  std::uint64_t ub() const noexcept {
    std::uint64_t u = c_ret;
    if (!p_async && p_ret < u) u = p_ret;
    return u;
  }
};

// P4 sweep. `key_inv`/`key_ret` select which side's interval orders the
// premise (produce side: A.p_ret < B.p_inv; consume side symmetric).
template <typename InvFn, typename RetFn>
void check_fifo_side(report &rep, const std::vector<pair_iv> &pairs,
                     InvFn key_inv, RetFn key_ret, const char *side) {
  if (pairs.size() < 2) return;
  // Sort one copy by premise-return, one by premise-invoke.
  std::vector<const pair_iv *> by_ret(pairs.size()), by_inv(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    by_ret[i] = by_inv[i] = &pairs[i];
  std::sort(by_ret.begin(), by_ret.end(),
            [&](const pair_iv *x, const pair_iv *y) {
              return key_ret(*x) < key_ret(*y);
            });
  std::sort(by_inv.begin(), by_inv.end(),
            [&](const pair_iv *x, const pair_iv *y) {
              return key_inv(*x) < key_inv(*y);
            });
  // Prefix-max of lb() over pairs whose premise-return precedes the
  // current pair's premise-invoke.
  std::size_t j = 0;
  std::uint64_t max_lb = 0;
  const pair_iv *argmax = nullptr;
  for (const pair_iv *b : by_inv) {
    while (j < by_ret.size() && key_ret(*by_ret[j]) < key_inv(*b)) {
      if (by_ret[j]->lb() > max_lb) {
        max_lb = by_ret[j]->lb();
        argmax = by_ret[j];
      }
      ++j;
    }
    if (argmax != nullptr && max_lb >= b->ub()) {
      add(rep,
          std::string("FIFO violation (") + side +
              "): an earlier-enqueued pair can only deliver after a "
              "later-enqueued one",
          *argmax->p, *b->p);
    }
  }
}

} // namespace detail

inline report check_history(const std::vector<event> &events,
                            const rules &r = rules{}) {
  report rep;
  rep.events = events.size();

  // ------------------------------------------------- producer / consumer
  std::unordered_map<std::uint64_t, const event *> produced_ok;
  produced_ok.reserve(events.size());
  std::unordered_map<std::uint64_t, const event *> produced_cancelled;

  for (const event &e : events) {
    if (e.role != op_role::produce) continue;
    if (e.given == 0) {
      detail::add(rep, "produce with value 0 (reserved)", e, detail::none());
      continue;
    }
    if (e.status == op_status::ok) {
      if (!produced_ok.emplace(e.given, &e).second)
        detail::add(rep, "value produced twice", e, detail::none());
    } else {
      ++rep.cancelled;
      produced_cancelled.emplace(e.given, &e);
    }
  }

  std::vector<detail::pair_iv> pairs;
  std::unordered_map<std::uint64_t, const event *> consumed;
  consumed.reserve(events.size());

  for (const event &e : events) {
    if (e.role != op_role::consume) continue;
    if (e.status != op_status::ok) {
      ++rep.cancelled;
      if (e.got != 0)
        detail::add(rep, "failed consume reported a value", e,
                    detail::none());
      continue;
    }
    if (!consumed.emplace(e.got, &e).second) {
      detail::add(rep, "value consumed twice (duplication)", e,
                  *consumed[e.got]);
      continue;
    }
    auto it = produced_ok.find(e.got);
    if (it == produced_ok.end()) {
      auto itc = produced_cancelled.find(e.got);
      if (itc != produced_cancelled.end())
        detail::add(rep,
                    "cancelled produce's value was delivered (the "
                    "cancellation-vs-fulfillment race)",
                    e, *itc->second);
      else
        detail::add(rep, "consumed a value never produced", e,
                    detail::none());
      continue;
    }
    const event &p = *it->second;
    detail::pair_iv pv;
    pv.p_inv = p.invoke;
    pv.p_ret = p.ret;
    pv.c_inv = e.invoke;
    pv.c_ret = e.ret;
    pv.p_async = (p.wk == wait_kind::async);
    pv.p = &p;
    pv.c = &e;
    pairs.push_back(pv);
    if (r.synchrony) {
      // P3: intervals must overlap (async producers: only "the item
      // cannot be taken before it was offered").
      if (!(p.invoke < e.ret))
        detail::add(rep, "value consumed before its produce was invoked",
                    e, p);
      if (!pv.p_async && !(e.invoke < p.ret))
        detail::add(rep,
                    "produce returned before its consumer arrived "
                    "(synchrony violated)",
                    e, p);
    }
  }
  rep.pairs = pairs.size();

  if (r.require_all_consumed) {
    for (auto &[v, p] : produced_ok)
      if (consumed.find(v) == consumed.end())
        detail::add(rep, "successful produce never consumed (lost item)",
                    *p, detail::none());
  }

  if (r.fifo) {
    detail::check_fifo_side(
        rep, pairs, [](const detail::pair_iv &x) { return x.p_inv; },
        [](const detail::pair_iv &x) { return x.p_ret; }, "producer order");
    detail::check_fifo_side(
        rep, pairs, [](const detail::pair_iv &x) { return x.c_inv; },
        [](const detail::pair_iv &x) { return x.c_ret; }, "consumer order");
  }

  return rep;
}

// Render the first few violations for a test log / torture stderr.
inline std::string summarize(const report &rep, std::size_t max = 8) {
  std::string s;
  std::size_t n = 0;
  for (const violation &v : rep.violations) {
    if (n++ == max) {
      s += "  ... (" + std::to_string(rep.violations.size() - max) +
           " more)\n";
      break;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %s [tid=%u %s/%s/%s inv=%llu ret=%llu given=%llu "
                  "got=%llu]\n",
                  v.what.c_str(), v.a.thread, role_name(v.a.role),
                  wait_kind_name(v.a.wk), status_name(v.a.status),
                  static_cast<unsigned long long>(v.a.invoke),
                  static_cast<unsigned long long>(v.a.ret),
                  static_cast<unsigned long long>(v.a.given),
                  static_cast<unsigned long long>(v.a.got));
    s += buf;
  }
  return s;
}

} // namespace ssq::check
