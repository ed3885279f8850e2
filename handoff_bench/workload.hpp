// What the three workloads share: the run configuration, the phase protocol
// between the main thread and the load threads, per-thread recorders, and
// the interface each workload implements.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace hb {

// Benchmark-side fault injection for the self-test: one value is corrupted
// or dropped on its way through the benchmark, never inside the library.
enum class fault { none, corrupt, drop };

struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fault inject = fault::none;
  std::string trace_out;
  std::string git_rev = "unknown";
};

// Load threads step through these; only the main thread moves the phase.
enum phase : int { warmup = 0, untraced = 1, traced = 2, stopping = 3 };
inline bool measured(int ph) noexcept { return ph == untraced || ph == traced; }
inline int slot_of(int ph) noexcept { return ph - untraced; } // 0 or 1

struct alignas(64) control {
  std::atomic<int> ph{warmup};
  std::atomic<std::int64_t> warm_ns{0}; // set once the warm-up count is met

  int read() const noexcept { return ph.load(std::memory_order_relaxed); }
  void warm_done() noexcept {
    std::int64_t z = 0;
    warm_ns.compare_exchange_strong(z, now_ns());
  }
};

// Fixed warm-up and window sizes, per workload.
struct shape {
  std::uint64_t warmup_ops;
  std::uint64_t per_window;     // operations per throughput window
  std::uint64_t lat_per_window; // samples per latency window, per thread
};
shape shape_of(const std::string &workload);

// Latency samples and span tracing of one load thread, per measured phase.
struct thread_rec {
  explicit thread_rec(std::uint64_t lat_per_window)
      : lat_windows(lat_per_window) {}

  histogram lat[2];               // whole phase
  window_quantiles lat_windows;   // per window
  std::unique_ptr<tracer> tr;     // traced runs only

  void record(int ph, std::int64_t ns) {
    lat[slot_of(ph)].record(ns);
    lat_windows.record(slot_of(ph), ns);
  }
  tracer *tracing(int ph) const noexcept {
    return ph == traced ? tr.get() : nullptr;
  }
};

// Buffers that outlive the set-up repetitions. Allocated and touched before
// the first repetition, so the timed phase allocates nothing of its own.
struct shared {
  static constexpr int max_threads = 3;

  explicit shared(const config &c)
      : cfg(c), warmup_ops(shape_of(c.workload).warmup_ops),
        win(shape_of(c.workload).per_window, 16384) {
    for (unsigned i = 0; i < max_threads; ++i) {
      rec[i] =
          std::make_unique<thread_rec>(shape_of(c.workload).lat_per_window);
      if (c.trace) rec[i]->tr = std::make_unique<tracer>(i);
    }
  }

  const config &cfg;
  const std::uint64_t warmup_ops;
  control ctl;
  std::unique_ptr<thread_rec> rec[max_threads];
  window_log win;
  std::uint64_t ops[2] = {0, 0}; // operations per measured phase
  std::uint64_t attempted = 0;   // every operation checked, all repetitions
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;     // serve: execute() returned false

  // Between repetitions: only the last one's measurements are reported.
  void reset_for_rep() {
    ctl.ph.store(warmup);
    ctl.warm_ns.store(0);
    for (auto &r : rec) {
      r->lat[0].clear();
      r->lat[1].clear();
      r->lat_windows.clear();
    }
    win.clear();
    ops[0] = ops[1] = 0;
  }
};

// One repetition of a workload: the library objects under test plus the
// load threads that drive them. The constructor starts the threads (set-up
// time includes it); finish() runs after the phase moved to `stopping`,
// drains, joins, and adds every check's outcome to the shared totals.
class load {
 public:
  virtual ~load() = default;
  virtual void finish() = 0;
  // Called by the main thread right after it moved the phase.
  virtual void on_phase(int) {}
};

std::unique_ptr<load> make_fanin(shared &sh);
std::unique_ptr<load> make_rpc(shared &sh);

// serve's ring of per-task records and the executor- and generator-side
// numbers it reports.
struct serve_stats {
  struct task {
    std::int64_t submit_ns = 0, ret_ns = 0, start_ns = 0, end_ns = 0;
    std::uint64_t payload = 0, out = 0, exec_span = 0;
    std::atomic<std::uint32_t> runs{0};
    std::atomic<bool> done{false}; // the task body finished (or was refused)
    int phase = warmup;
  };

  // 3.3 s of tasks at 5000/s: far longer than any task stays in flight.
  static constexpr std::size_t ring = 16384;

  std::vector<task> tasks = std::vector<task>(ring);
  histogram late[2], queue_wait[2];   // submit - due; start - execute() return
  // Tasks that started before execute() returned.
  std::uint64_t negative_wait[2] = {0, 0};
  std::uint64_t spawned[2] = {0, 0};
  std::size_t pool_size_max = 0;
};
std::unique_ptr<load> make_serve(shared &sh, serve_stats &st);

// Values a run sends are drawn from the seed; these are the functions the
// receiving side is checked against.
inline std::uint32_t reply_of(std::uint32_t x) noexcept {
  return (x * 2654435761u) ^ 0x5bd1e995u;
}
inline std::uint64_t result_of(std::uint64_t p) noexcept {
  return p * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
}
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0xd1b54a32d192ed03ull);
  return ssq::splitmix64(s);
}

// A load thread pinned to CPU slot `slot` (1..3; see pin_self). Bodies fail
// fast: a load thread that dies would leave its peer blocked in the library
// forever.
template <typename F>
std::thread load_thread(unsigned slot, F &&f) {
  return std::thread([slot, fn = std::forward<F>(f)]() mutable {
    pin_self(slot);
    try {
      fn();
    } catch (const std::exception &e) {
      std::fprintf(stderr, "load thread failed: %s\n", e.what());
      std::abort();
    }
  });
}

} // namespace hb
