// Figure 4: synchronous handoff, 1 producer : N consumers.
//
// Paper result (§4): Hanson's mandatory per-operation blocking is
// accentuated when a singleton serves many counterparts.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 3, 5, 8, 12, 18, 27});

  harness::table t({"consumers", "SynchronousQueue", "SynchronousQueue(fair)",
                    "HansonSQ", "NewSynchQueue", "NewSynchQueue(fair)"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure<java5_unfair_t>(1, n, cfg),
               measure<java5_fair_t>(1, n, cfg), measure<hanson_t>(1, n, cfg),
               measure<new_unfair_t>(1, n, cfg),
               measure<new_fair_t>(1, n, cfg)});
  emit(t, cfg,
       "Figure 4: single producer, N consumers, ns/transfer");
  return 0;
}
