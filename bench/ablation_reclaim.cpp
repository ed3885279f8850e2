// Ablation B: the price of safe memory reclamation.
//
// Java gets node reclamation for free from the garbage collector; the C++
// port pays for hazard-pointer publication and scanning. This bench prices
// that safety by running the same handoff workload over:
//
//   hp        -- hazard-pointer reclaimer (the default),
//   deferred  -- retire is a tombstone push, freeing deferred to structure
//                destruction (an idealized "GC will handle it" stand-in).
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

template <bool Fair, typename Rec>
using sq = synchronous_queue<payload, Fair, Rec>;

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4}, "ablation_reclaim.csv");

  harness::table t({"pairs", "unfair/hp", "unfair/deferred", "fair/hp",
                    "fair/deferred"});
  for (int n : cfg.levels) {
    double uh = measure<sq<false, mem::hp_reclaimer>>(n, n, cfg);
    double ud = measure<sq<false, mem::deferred_reclaimer>>(n, n, cfg);
    double fh = measure<sq<true, mem::hp_reclaimer>>(n, n, cfg);
    double fd = measure<sq<true, mem::deferred_reclaimer>>(n, n, cfg);
    t.add_row({std::to_string(n), harness::table::fmt(uh),
               harness::table::fmt(ud), harness::table::fmt(fh),
               harness::table::fmt(fd)});
    std::fflush(stdout);
  }
  emit(t, cfg.csv, "Ablation B: reclamation scheme, ns/transfer");
  std::printf("hp scans so far: %llu, retired-watermark: %zu\n",
              static_cast<unsigned long long>(diag::read(diag::id::hp_scan)),
              mem::hazard_domain::global().approx_retired());
  return 0;
}
