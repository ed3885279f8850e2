// Ablation F: node pooling -- taking allocator traffic off the hot path.
//
// Every transfer allocates one node and (eventually) frees one; the paper's
// Java original paid almost nothing for this thanks to TLAB bump allocation
// and the collector. This bench prices the C++ equivalents against each
// other by running the same handoff workload over the four allocation x
// reclamation combinations:
//
//   heap/hp    -- operator new/delete under hazard pointers (the old default)
//   pool/hp    -- thread-local node pools under hazard pointers (the default)
//   heap/def   -- heap allocation, deferred (tombstone) reclamation
//   pool/def   -- pooled allocation, deferred reclamation
//
// pool vs heap isolates the allocator; hp vs def isolates the scan cost.
// The summary line reports the pooled/heap speedup per thread level and the
// pool's recycle ratio (allocations served from magazines/ring vs fresh
// chunk carves) -- in steady state the ratio should be close to 1.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

template <bool Fair, typename Rec>
using sq = synchronous_queue<payload, Fair, Rec>;

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8}, "ablation_pooling.csv");

  harness::table t({"pairs", "unfair/heap-hp", "unfair/pool-hp",
                    "fair/heap-hp", "fair/pool-hp", "unfair/heap-def",
                    "unfair/pool-def"});
  std::vector<std::pair<int, double>> speedups; // unfair hp: heap / pool
  for (int n : cfg.levels) {
    double uhh = measure<sq<false, mem::hp_reclaimer>>(n, n, cfg);
    double uph = measure<sq<false, mem::pooled_hp_reclaimer>>(n, n, cfg);
    double fhh = measure<sq<true, mem::hp_reclaimer>>(n, n, cfg);
    double fph = measure<sq<true, mem::pooled_hp_reclaimer>>(n, n, cfg);
    double uhd = measure<sq<false, mem::deferred_reclaimer>>(n, n, cfg);
    double upd = measure<sq<false, mem::pooled_deferred_reclaimer>>(n, n, cfg);
    t.add_row({std::to_string(n), harness::table::fmt(uhh),
               harness::table::fmt(uph), harness::table::fmt(fhh),
               harness::table::fmt(fph), harness::table::fmt(uhd),
               harness::table::fmt(upd)});
    speedups.emplace_back(n, uph > 0 ? uhh / uph : 0.0);
    std::fflush(stdout);
  }
  emit(t, cfg.csv, "Ablation F: node pooling, ns/transfer");

  for (auto [n, s] : speedups)
    std::printf("pairs=%d pooled speedup (unfair/hp): %.2fx\n", n, s);
  const double rec = static_cast<double>(diag::read(diag::id::pool_recycle));
  const double fresh = static_cast<double>(diag::read(diag::id::pool_fresh));
  std::printf("pool recycle ratio: %.4f (%llu recycled, %llu fresh carves)\n",
              rec + fresh > 0 ? rec / (rec + fresh) : 0.0,
              static_cast<unsigned long long>(rec),
              static_cast<unsigned long long>(fresh));
  return 0;
}
