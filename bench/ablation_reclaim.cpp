// Ablation B: the price of safe memory reclamation.
//
// Java gets node reclamation for free from the garbage collector; the C++
// port pays for hazard-pointer publication and scanning. This bench prices
// that safety by running the same handoff workload over:
//
//   hp        -- hazard-pointer reclaimer (the default),
//   deferred  -- retire is a tombstone push, freeing deferred to structure
//                destruction (an idealized "GC will handle it" stand-in).
//
// It also reports epoch-based reclamation on the M&S substrate, where EBR is
// applicable (no parked waiters), for cross-scheme context.
#include "bench_common.hpp"
#include "substrate/ms_queue.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

template <bool Fair, typename Rec>
using sq = synchronous_queue<payload, Fair, Rec>;

// M&S queue is non-synchronous: producers never block, so quota-balance is
// trivial; consumers poll-loop.
double measure_msq(int pairs, const sweep_config &cfg) {
  std::vector<double> samples;
  for (int r = 0; r < cfg.reps; ++r) {
    ms_queue<payload> q;
    std::atomic<std::uint64_t> consumed{0};
    const std::uint64_t total = cfg.ops;
    auto pq = harness::split_quota(total, pairs);
    auto cq = harness::split_quota(total, pairs);
    std::vector<std::function<void()>> bodies;
    for (int p = 0; p < pairs; ++p) {
      std::uint64_t n = pq[static_cast<std::size_t>(p)];
      bodies.push_back([&q, n] {
        for (std::uint64_t i = 0; i < n; ++i)
          q.enqueue(static_cast<payload>(i + 1));
      });
    }
    for (int c = 0; c < pairs; ++c) {
      std::uint64_t n = cq[static_cast<std::size_t>(c)];
      bodies.push_back([&q, n] {
        std::uint64_t got = 0;
        while (got < n) {
          if (q.dequeue())
            ++got;
          else
            std::this_thread::yield();
        }
      });
    }
    (void)consumed;
    double secs = harness::run_threads_timed(std::move(bodies));
    samples.push_back(secs * 1e9 / static_cast<double>(total));
  }
  return harness::summarize(samples).median;
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4}, "ablation_reclaim.csv");

  harness::table t({"pairs", "unfair/hp", "unfair/deferred", "fair/hp",
                    "fair/deferred", "msq/epoch"});
  for (int n : cfg.levels) {
    double uh = measure<sq<false, mem::hp_reclaimer>>(n, n, cfg);
    double ud = measure<sq<false, mem::deferred_reclaimer>>(n, n, cfg);
    double fh = measure<sq<true, mem::hp_reclaimer>>(n, n, cfg);
    double fd = measure<sq<true, mem::deferred_reclaimer>>(n, n, cfg);
    double ms = measure_msq(n, cfg);
    t.add_row({std::to_string(n), harness::table::fmt(uh),
               harness::table::fmt(ud), harness::table::fmt(fh),
               harness::table::fmt(fd), harness::table::fmt(ms)});
    std::fflush(stdout);
  }
  emit(t, cfg.csv, "Ablation B: reclamation scheme, ns/transfer");
  std::printf("hp scans so far: %llu, retired-watermark: %zu\n",
              static_cast<unsigned long long>(diag::read(diag::id::hp_scan)),
              mem::hazard_domain::global().approx_retired());
  return 0;
}
