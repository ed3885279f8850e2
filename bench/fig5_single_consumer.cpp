// Figure 5: synchronous handoff, N producers : 1 consumer.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 3, 5, 8, 12, 18, 27});

  harness::table t({"producers", "SynchronousQueue", "SynchronousQueue(fair)",
                    "HansonSQ", "NewSynchQueue", "NewSynchQueue(fair)"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure<java5_unfair_t>(n, 1, cfg),
               measure<java5_fair_t>(n, 1, cfg), measure<hanson_t>(n, 1, cfg),
               measure<new_unfair_t>(n, 1, cfg),
               measure<new_fair_t>(n, 1, cfg)});
  emit(t, cfg,
       "Figure 5: N producers, single consumer, ns/transfer");
  return 0;
}
