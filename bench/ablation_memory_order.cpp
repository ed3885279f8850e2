// Ablation H: audited acquire/release relaxation vs forced seq_cst.
//
// The mo-pairing pass (docs/memory_model.md) relaxed the hot cores from
// blanket seq_cst to labeled acquire/release edges. This bench prices that
// audit on the same handoff workload the figure benches use, over the three
// cores the relaxation touched hardest: the unfair (stack) and fair (queue)
// flagship cores and the segmented fair core.
//
// It is built twice from this one source file:
//   * ablation_memory_order         -- the audited relaxed tree (SSQ_MO as
//                                      spelled), and
//   * ablation_memory_order_forced  -- compiled with -DSSQ_FORCE_SEQ_CST,
//                                      pinning every labeled site back to
//                                      seq_cst.
// Each binary stamps its mode into the JSON meta header; the committed
// snapshot BENCH_memory_order.json is the two --json outputs merged by
// scripts/bench_compare.py on the reference container, and the CI bench
// gate re-runs the pair in --quick mode and asserts parity-or-better with
// bench_compare.py --mode=parity.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

using seg_fair_t = segmented_synchronous_queue<payload>;

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8});

  std::printf("memory-order mode: %s\n", SSQ_MEMORY_ORDER_MODE);

  harness::table t(
      {"pairs", "unfair ns/x", "fair ns/x", "segmented ns/x"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure<new_unfair_t>(n, n, cfg),
               measure<new_fair_t>(n, n, cfg), measure<seg_fair_t>(n, n, cfg)});
  emit(t, cfg,
       "Ablation H: labeled acquire/release vs forced seq_cst "
       "(" SSQ_MEMORY_ORDER_MODE ")");
  return 0;
}
