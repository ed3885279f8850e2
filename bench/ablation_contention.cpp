// Contention accounting: the *why* behind Figures 3-6.
//
// The paper's §4 attributes the baselines' slowness to "blocking and
// contention surrounding the synchronization state of synchronous queues".
// This bench makes that observable: for each algorithm it runs the N:N
// handoff workload and reports, per transfer, how many kernel blocks
// (parks) and wakeups (unparks) occurred and how many head/tail/item CASes
// failed (the coherence-traffic proxy).
//
// Expected: Hanson blocks at least once per operation by construction; the
// Java5 baselines park on the entry lock under load (fair mode worst); the
// new algorithms park at most once per transfer and shed contention into
// (cheap) CAS retries.
#include "bench_common.hpp"
#include "support/diagnostics.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

// Parks, unparks and failed CASes per transfer, each the median over reps.
template <typename Q>
std::string account(int pairs, const sweep_config &cfg) {
  auto s = repeat(cfg, [&] {
    Q q;
    auto before = diag::snapshot::take();
    handoff(q, pairs, pairs, cfg);
    auto d = diag::snapshot::take() - before;
    const double n = static_cast<double>(cfg.ops);
    return std::vector{static_cast<double>(d[diag::id::park]) / n,
                       static_cast<double>(d[diag::id::unpark]) / n,
                       static_cast<double>(d[diag::id::cas_fail]) / n};
  });
  return harness::table::fmt(s[0].median, 2) + "/" +
         harness::table::fmt(s[1].median, 2) + "/" +
         harness::table::fmt(s[2].median, 2);
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {1, 2, 4});

  std::printf("cell format: parks/unparks/failed-CASes per transfer\n");
  harness::table t({"pairs", "SynchronousQueue", "SynchronousQueue(fair)",
                    "HansonSQ", "NewSynchQueue", "NewSynchQueue(fair)"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), account<java5_unfair_t>(n, cfg),
               account<java5_fair_t>(n, cfg), account<hanson_t>(n, cfg),
               account<new_unfair_t>(n, cfg), account<new_fair_t>(n, cfg)});
  emit(t, cfg, "Contention accounting per transfer (N:N handoff)");
  return 0;
}
