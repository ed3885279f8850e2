// Duration-based throughput sweep: transfers/second over a fixed wall-clock
// window, for every timed-capable implementation.
//
// Complements the figure benches (a fixed operation count per rep): a
// duration-based method is insensitive to straggler threads and lets the
// slow baselines be compared at identical wall-clock cost. Each cell is the
// median over one window per rep. Hanson's queue is absent by necessity
// (no timed operations -- paper §3.3).
#include <atomic>
#include <barrier>
#include <thread>

#include "baselines/naive_sq.hpp"
#include "bench_common.hpp"
#include "core/eliminating_sq.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

// One window: successful transfers per second.
template <typename Q>
double run_throughput(int pairs, nanoseconds window) {
  Q q;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> in_sum{0}, out_sum{0}, count{0};
  std::barrier gate(2 * pairs + 1);

  std::vector<std::thread> ts;
  for (int p = 0; p < pairs; ++p) {
    ts.emplace_back([&, p] {
      gate.arrive_and_wait();
      std::uint64_t v = static_cast<std::uint64_t>(p) << 32;
      while (!stop.load(std::memory_order_acquire)) {
        ++v;
        if (q.offer(static_cast<payload>(v),
                    deadline::in(std::chrono::milliseconds(1))))
          in_sum.fetch_add(static_cast<payload>(v),
                           std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < pairs; ++c) {
    ts.emplace_back([&] {
      gate.arrive_and_wait();
      for (;;) {
        auto v = q.poll(deadline::in(std::chrono::milliseconds(1)));
        if (v) {
          out_sum.fetch_add(*v, std::memory_order_relaxed);
          count.fetch_add(1, std::memory_order_relaxed);
        }
        if (stop.load(std::memory_order_acquire) && !v) break;
      }
    });
  }
  gate.arrive_and_wait();
  auto t0 = steady_clock::now();
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_release);
  for (auto &t : ts) t.join();
  double secs = std::chrono::duration<double>(steady_clock::now() - t0).count();

  if (in_sum.load() != out_sum.load()) {
    std::fprintf(stderr, "THROUGHPUT CHECKSUM FAILURE\n");
    std::exit(1);
  }
  return static_cast<double>(count.load()) / secs;
}

// Median transfers/sec over one window per rep.
template <typename Q>
harness::table::cell rate(int pairs, nanoseconds window,
                          const sweep_config &cfg) {
  auto s = repeat(cfg, [&] {
    return std::vector{run_throughput<Q>(pairs, window)};
  });
  return {s[0], 0};
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4});
  auto window = std::chrono::milliseconds(
      cfg.opt.get_int("window_ms", cfg.opt.has("quick") ? 50 : 250));

  harness::table t({"pairs", "SynchronousQueue", "SynchronousQueue(fair)",
                    "NewSynchQueue", "NewSynchQueue(fair)", "Eliminating",
                    "NaiveSQ"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), rate<java5_unfair_t>(n, window, cfg),
               rate<java5_fair_t>(n, window, cfg),
               rate<new_unfair_t>(n, window, cfg),
               rate<new_fair_t>(n, window, cfg),
               rate<eliminating_sq<payload>>(n, window, cfg),
               rate<naive_sq<payload>>(n, window, cfg)});
  emit(t, cfg, "Throughput sweep: successful transfers per second "
               "(duration-based method)");
  return 0;
}
