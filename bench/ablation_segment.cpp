// Ablation G: segmented waiter-cell core vs the linked fair core.
//
// The linked dual queue allocates and retires one node per transfer; the
// segmented core (core/segment_queue.hpp) amortizes both over 64-cell
// segments, so its reclaimer sees ~1/64th the retire traffic. This bench
// prices that trade on the same handoff workload:
//
//   * ns/transfer for both cores per concurrency level (same series the
//     figure benches print), and
//   * retire calls per transfer, measured from the node_retire diagnostic
//     counter around each run -- the 64:1 claim, observed not asserted.
//
// The committed snapshot BENCH_segment.json is this bench's --json output
// on the reference container (levels 1,2,4,8 -- level 8 = 16 threads).
#include "bench_common.hpp"

#include "support/diagnostics.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

using seg_fair_t = segmented_synchronous_queue<payload>;

// Per rep: ns/transfer, and retire calls per transfer counted around the
// queue's whole life, its destructor included.
template <typename Q>
std::vector<harness::summary> measure_core(int pairs, const sweep_config &cfg) {
  return repeat(cfg, [&] {
    const std::uint64_t r0 = diag::read(diag::id::node_retire);
    double ns;
    {
      Q q;
      ns = handoff(q, pairs, pairs, cfg);
    }
    const std::uint64_t r1 = diag::read(diag::id::node_retire);
    return std::vector{ns, static_cast<double>(r1 - r0) /
                               static_cast<double>(cfg.ops)};
  });
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8});

  harness::table t({"pairs", "linked ns/x", "segmented ns/x",
                    "linked ret/x", "segmented ret/x", "retire reduction"});
  for (int n : cfg.levels) {
    auto linked = measure_core<new_fair_t>(n, cfg);
    auto seg = measure_core<seg_fair_t>(n, cfg);
    // Retires per transfer: the worst rep.
    const double lr = linked[1].max, sr = seg[1].max;
    t.add_row({std::to_string(n), linked[0], seg[0],
               harness::table::fmt(lr, 4), harness::table::fmt(sr, 4),
               harness::table::fmt(sr > 0 ? lr / sr : 0.0) + "x"});
  }
  emit(t, cfg, "Ablation G: segmented vs linked fair core");

  std::printf(
      "segment size: %zu cells; whole-segment retires this process: %llu\n",
      segment_queue<>::seg_cells,
      static_cast<unsigned long long>(diag::read(diag::id::seg_retire)));
  return 0;
}
