// Ablations B and F: the price of safe memory reclamation, and node pooling
// -- taking allocator traffic off the hot path.
//
// Every transfer allocates one node and (eventually) frees one; the paper's
// Java original paid almost nothing for this thanks to TLAB bump allocation
// and the collector. This bench prices the C++ equivalents against each
// other by running the same handoff workload over the allocation x
// reclamation combinations:
//
//   heap-hp    -- operator new/delete under hazard pointers (the old default)
//   pool-hp    -- thread-local node pools under hazard pointers (the default)
//   heap-def   -- heap allocation, deferred (tombstone) reclamation: retire
//                 is a push, freeing waits for structure destruction (an
//                 idealized "GC will handle it" stand-in)
//   pool-def   -- pooled allocation, deferred reclamation
//
// pool vs heap isolates the allocator; hp vs def isolates the scan cost
// (Ablation B: the unfair and fair heap-hp and heap-def columns). The
// summary lines report the pooled/heap speedup per thread level, the pool's
// recycle ratio (allocations served from magazines/ring vs fresh chunk
// carves) -- in steady state the ratio should be close to 1 -- and the
// hazard domain's scans and retired watermark.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

template <bool Fair, typename Rec>
using sq = synchronous_queue<payload, Fair, Rec>;

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8});

  harness::table t({"pairs", "unfair/heap-hp", "unfair/pool-hp",
                    "fair/heap-hp", "fair/pool-hp", "unfair/heap-def",
                    "unfair/pool-def", "fair/heap-def"});
  std::vector<std::pair<int, double>> speedups; // unfair hp: heap / pool
  for (int n : cfg.levels) {
    auto uhh = measure<sq<false, mem::hp_reclaimer>>(n, n, cfg);
    auto uph = measure<sq<false, mem::pooled_hp_reclaimer>>(n, n, cfg);
    t.add_row({std::to_string(n), uhh, uph,
               measure<sq<true, mem::hp_reclaimer>>(n, n, cfg),
               measure<sq<true, mem::pooled_hp_reclaimer>>(n, n, cfg),
               measure<sq<false, mem::deferred_reclaimer>>(n, n, cfg),
               measure<sq<false, mem::pooled_deferred_reclaimer>>(n, n, cfg),
               measure<sq<true, mem::deferred_reclaimer>>(n, n, cfg)});
    speedups.emplace_back(n, uph.median > 0 ? uhh.median / uph.median : 0.0);
  }
  emit(t, cfg, "Ablations B and F: reclamation and node pooling, ns/transfer");

  for (auto [n, s] : speedups)
    std::printf("pairs=%d pooled speedup (unfair/hp): %.2fx\n", n, s);
  const double rec = static_cast<double>(diag::read(diag::id::pool_recycle));
  const double fresh = static_cast<double>(diag::read(diag::id::pool_fresh));
  std::printf("pool recycle ratio: %.4f (%llu recycled, %llu fresh carves)\n",
              rec + fresh > 0 ? rec / (rec + fresh) : 0.0,
              static_cast<unsigned long long>(rec),
              static_cast<unsigned long long>(fresh));
  std::printf("hp scans so far: %llu, retired-watermark: %zu\n",
              static_cast<unsigned long long>(diag::read(diag::id::hp_scan)),
              mem::hazard_domain::global().approx_retired());
  return 0;
}
