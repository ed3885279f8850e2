// Per-transfer handoff latency distribution.
//
// Throughput (the figures) hides tail behaviour; this bench measures
// individual put()->return latencies under a steady 1:1 handoff and prints
// min / p50 / p90 / p99 / p99.9 / max per implementation, each the median
// over reps. Fair-mode lock pileups and notify-all storms show up here as
// long tails well before they dominate the mean.
//
// It is a run of its own because timing every put adds two clock reads to
// each transfer, which the figure benches' cells must not pay.
//
//   ./latency_percentiles --ops=20000 --reps=3 --json=latency.json
#include "baselines/naive_sq.hpp"
#include "bench_common.hpp"
#include "core/eliminating_sq.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

// One rep: cfg.ops timed puts against one taker; the min, p50, p90, p99,
// p99.9 and max of their latencies in ns.
template <typename Q>
std::vector<double> put_latencies(const sweep_config &cfg) {
  Q q;
  std::vector<double> lat;
  lat.reserve(cfg.ops);
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < cfg.ops; ++i) (void)q.take();
  });
  for (std::uint64_t i = 0; i < cfg.ops; ++i) {
    auto t0 = steady_clock::now();
    q.put(static_cast<payload>(i + 1));
    lat.push_back(
        std::chrono::duration<double, std::nano>(steady_clock::now() - t0)
            .count());
  }
  consumer.join();
  std::vector<double> out;
  for (double p : {0.0, 0.50, 0.90, 0.99, 0.999, 1.0})
    out.push_back(harness::percentile(lat, p));
  return out;
}

template <typename Q>
void add_row(harness::table &t, const char *name, const sweep_config &cfg) {
  auto s = repeat(cfg, [&] { return put_latencies<Q>(cfg); });
  t.add_row({name, {s[0], 0}, {s[1], 0}, {s[2], 0}, {s[3], 0}, {s[4], 0},
             {s[5], 0}});
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {}, /*default_ops=*/20000);

  harness::table t({"impl", "min(ns)", "p50", "p90", "p99", "p99.9", "max"});
  add_row<java5_unfair_t>(t, "java5-unfair", cfg);
  add_row<java5_fair_t>(t, "java5-fair", cfg);
  add_row<hanson_t>(t, "hanson", cfg);
  add_row<new_unfair_t>(t, "new-unfair", cfg);
  add_row<new_fair_t>(t, "new-fair", cfg);
  add_row<eliminating_sq<payload>>(t, "eliminating", cfg);
  add_row<naive_sq<payload>>(t, "naive", cfg);
  emit(t, cfg, "Per-put handoff latency, 1 producer : 1 consumer");
  return 0;
}
