// Ablation C: elimination arena on/off (paper §5).
//
// "In preliminary work, we have found elimination to be beneficial only in
// cases of artificially extreme contention." Expect the arena variant to
// trail at low concurrency (every operation pays an arena detour with
// bounded patience) and to close the gap -- possibly win on big multicores
// -- as contention on the stack head grows.
#include "bench_common.hpp"
#include "core/eliminating_sq.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

harness::summary measure_elim(int pairs, nanoseconds patience,
                              const sweep_config &cfg) {
  return measure([patience] { return eliminating_sq<payload>(patience); },
                 pairs, pairs, cfg);
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4, 8});

  harness::table t({"pairs", "plain-unfair", "arena-5us", "arena-50us"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure<new_unfair_t>(n, n, cfg),
               measure_elim(n, std::chrono::microseconds(5), cfg),
               measure_elim(n, std::chrono::microseconds(50), cfg)});
  emit(t, cfg,
       "Ablation C: elimination-arena front end on the unfair queue, "
       "ns/transfer");
  return 0;
}
