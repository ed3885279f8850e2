// Figure 3: synchronous handoff, N producers : N consumers.
//
// Paper result (§4): Hanson and Java5-fair are 4-8x slower than the best;
// Java5-unfair is ~2x the new algorithms; the two new algorithms are
// comparable to each other.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 3, 4, 6, 8, 12, 16});

  harness::table t({"pairs", "SynchronousQueue", "SynchronousQueue(fair)",
                    "HansonSQ", "NewSynchQueue", "NewSynchQueue(fair)"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure<java5_unfair_t>(n, n, cfg),
               measure<java5_fair_t>(n, n, cfg), measure<hanson_t>(n, n, cfg),
               measure<new_unfair_t>(n, n, cfg),
               measure<new_fair_t>(n, n, cfg)});
  emit(t, cfg,
       "Figure 3: producer-consumer handoff, ns/transfer (N pairs)");
  return 0;
}
