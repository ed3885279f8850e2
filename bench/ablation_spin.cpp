// Ablation A: waiting policy -- spin-then-park vs. park-only vs. spin-only
// (paper §3.3 Pragmatics: "On very busy synchronous queues, spinning can
// dramatically improve throughput ... busy-wait is useless overhead on a
// uniprocessor").
//
// On a multiprocessor, expect spin-then-park <= park-only at high handoff
// rates; on a uniprocessor (like the reference CI box), expect park-only and
// adaptive to coincide and spin-only to trail badly -- the paper's claim in
// the other direction.
#include "bench_common.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

harness::summary measure_policy(sync::spin_policy pol, int pairs,
                                const sweep_config &cfg) {
  return measure([pol] { return synchronous_queue<payload, false>(pol); },
                 pairs, pairs, cfg);
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8});

  harness::table t({"pairs", "park-only", "spin-then-park", "spin-only"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n),
               measure_policy(sync::spin_policy::park_only(), n, cfg),
               measure_policy(sync::spin_policy::adaptive(), n, cfg),
               measure_policy(sync::spin_policy::spin_only(), n, cfg)});
  emit(t, cfg,
       "Ablation A: waiting policy on the unfair queue, ns/transfer");
  std::printf("hardware_concurrency=%u (paper: spinning helps only on "
              "multiprocessors)\n",
              std::thread::hardware_concurrency());
  return 0;
}
