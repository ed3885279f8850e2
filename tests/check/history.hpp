// Operation-history recording for the linearizability harness (ssq::check).
//
// Every checked operation is logged as one `event` carrying two *global
// stamps* (invoke and return) drawn from a single seq_cst counter. Because
// every internal linearization CAS in the structures is itself seq_cst, all
// stamps and linearization points fall into one total order S, which makes
// stamp arithmetic sound for ordering claims:
//
//     stamp(A.ret) < stamp(B.inv)
//       ==>  A's linearization point precedes B's in S.
//
// The oracle (check/oracle.hpp) consumes exactly that implication: it never
// assumes the converse (stamp order does not prove concurrency order), so
// every violation it reports is a real one.
//
// Recording is per-thread (no shared mutation besides the stamp counter,
// which the workload already hammers far less than the queue itself), and
// buffers are preallocated so that recording does not perturb the schedule
// with malloc.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/wait_kind.hpp"

namespace ssq::check {

// The role an operation played: it offers a value or receives one.
enum class op_role : std::uint8_t { produce, consume };

enum class op_status : std::uint8_t {
  ok,          // transferred
  timeout,     // patience expired; cancelled
  miss,        // wait_kind::now with no counterpart present
  interrupted, // interrupt/close observed; cancelled
};

struct event {
  std::uint64_t invoke = 0;  // global stamp immediately before the call
  std::uint64_t ret = 0;     // global stamp immediately after the call
  std::uint64_t given = 0;   // value offered (produce), else 0
  std::uint64_t got = 0;     // value received (consume), else 0
  std::uint32_t thread = 0;
  op_role role = op_role::produce;
  wait_kind wk = wait_kind::sync;
  op_status status = op_status::ok;
};

// Values are partitioned so 0 can mean "none": workloads must produce
// values >= 1 (the torture driver uses a global sequence counter).

class recorder {
 public:
  explicit recorder(std::size_t nthreads, std::size_t reserve_per_thread = 0)
      : logs_(nthreads) {
    if (reserve_per_thread)
      for (auto &l : logs_) l.reserve(reserve_per_thread);
  }

  // Global stamp: unique, and totally ordered with the structures' seq_cst
  // linearization CASes.
  std::uint64_t stamp() noexcept {
    return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  // Append an event to `tid`'s log. Single writer per tid.
  void log(std::size_t tid, const event &ev) {
    logs_[tid].push_back(ev);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t threads() const noexcept { return logs_.size(); }

  // Total logged events. Kept as an atomic side-counter so progress
  // monitors may read it while workers are still logging (the vectors
  // themselves are single-writer and only safe to touch after join).
  std::size_t size() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  // Merge all per-thread logs (stable by thread, then program order).
  // Call only after the worker threads have joined.
  std::vector<event> collect() const {
    std::vector<event> all;
    all.reserve(size());
    for (auto &l : logs_) all.insert(all.end(), l.begin(), l.end());
    return all;
  }

  void clear() {
    for (auto &l : logs_) l.clear();
    count_.store(0, std::memory_order_relaxed);
    clock_.store(0, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> count_{0};
  std::vector<std::vector<event>> logs_;
};

// Scoped helper: stamps invocation at construction; commit() stamps the
// return and writes the event.
class op_scope {
 public:
  op_scope(recorder &r, std::size_t tid, op_role role, wait_kind wk) noexcept
      : r_(r), tid_(tid) {
    ev_.thread = static_cast<std::uint32_t>(tid);
    ev_.role = role;
    ev_.wk = wk;
    ev_.invoke = r.stamp();
  }

  void commit(op_status st, std::uint64_t given, std::uint64_t got) {
    ev_.ret = r_.stamp();
    ev_.status = st;
    ev_.given = given;
    ev_.got = got;
    r_.log(tid_, ev_);
  }

 private:
  recorder &r_;
  std::size_t tid_;
  event ev_{};
};

// ---------------------------------------------------------------- dump/load

inline const char *role_name(op_role r) noexcept {
  switch (r) {
    case op_role::produce: return "produce";
    case op_role::consume: return "consume";
  }
  return "?";
}

inline const char *status_name(op_status s) noexcept {
  switch (s) {
    case op_status::ok: return "ok";
    case op_status::timeout: return "timeout";
    case op_status::miss: return "miss";
    case op_status::interrupted: return "interrupted";
  }
  return "?";
}

inline const char *wait_kind_name(wait_kind wk) noexcept {
  switch (wk) {
    case wait_kind::now: return "now";
    case wait_kind::timed: return "timed";
    case wait_kind::sync: return "sync";
    case wait_kind::async: return "async";
  }
  return "?";
}

// One line per event: "tid role wk status invoke ret given got".
// Sorted by invoke stamp so a human reads the history in (an) admissible
// real-time order. Used to dump failing histories next to their
// reproducing seed.
inline void dump_history(std::FILE *f, std::vector<event> events) {
  std::sort(events.begin(), events.end(),
            [](const event &a, const event &b) { return a.invoke < b.invoke; });
  std::fprintf(f, "# tid role wk status invoke ret given got\n");
  for (const event &e : events)
    std::fprintf(f, "%u %s %s %s %llu %llu %llu %llu\n", e.thread,
                 role_name(e.role), wait_kind_name(e.wk), status_name(e.status),
                 static_cast<unsigned long long>(e.invoke),
                 static_cast<unsigned long long>(e.ret),
                 static_cast<unsigned long long>(e.given),
                 static_cast<unsigned long long>(e.got));
}

} // namespace ssq::check
