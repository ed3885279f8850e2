// Shared scaffolding for the figure-reproduction benches.
//
// Each figure binary sweeps concurrency levels and prints one row per level
// with one ns/transfer column per algorithm -- the same series the paper
// plots. Results are also written as CSV (<bench>.csv in the working
// directory) for plotting.
//
// Flags (all optional):
//   --levels=1,2,4,...   concurrency sweep
//   --ops=N              transfers per cell   (default 8000)
//   --reps=N             repetitions per cell (default 2; median reported)
//   --csv=path           CSV output path
//   --json=path          JSON output path (machine-readable series; the
//                        committed BENCH_*.json snapshots use this)
//   --quick              tiny run for smoke-testing (CI)
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hanson_sq.hpp"
#include "baselines/java5_sq.hpp"
#include "core/synchronous_queue.hpp"
#include "harness/options.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "sync/spin_policy.hpp"

namespace ssq::bench {

using payload = std::uint32_t; // inline-encoded: no boxing in the hot loop

// The five contenders of Figures 3-5, under the paper's names.
using java5_unfair_t = java5_sq<payload, false>; // "SynchronousQueue"
using java5_fair_t = java5_sq<payload, true>;    // "SynchronousQueue (fair)"
using hanson_t = hanson_sq<payload>;             // "HansonSQ"
using new_unfair_t = synchronous_queue<payload, false>; // "New SynchQueue"
using new_fair_t = synchronous_queue<payload, true>; // "New SynchQueue (fair)"

struct sweep_config {
  std::vector<int> levels;
  std::uint64_t ops = 8000;
  int reps = 2;
  std::string csv;
  std::string json; // empty: no JSON emitted
};

inline sweep_config parse_sweep(int argc, char **argv,
                                std::vector<int> default_levels,
                                const char *default_csv,
                                std::uint64_t default_ops = 8000) {
  auto opt = harness::options::parse(argc, argv);
  sweep_config cfg;
  cfg.levels = opt.get_int_list("levels", std::move(default_levels));
  cfg.ops = static_cast<std::uint64_t>(
      opt.get_int("ops", static_cast<std::int64_t>(default_ops)));
  cfg.reps = static_cast<int>(opt.get_int("reps", 2));
  cfg.csv = opt.get("csv", default_csv);
  cfg.json = opt.get("json", "");
  if (opt.has("quick")) {
    cfg.levels.resize(cfg.levels.size() > 3 ? 3 : cfg.levels.size());
    cfg.ops = 1000;
    cfg.reps = 1;
  }
  return cfg;
}

// Median ns/transfer over `reps` runs of a (nprod, ncons) handoff workload
// on a fresh queue per rep, built by `make()` -- for queues that take
// constructor arguments (guaranteed elision lets `make` return a
// non-movable queue by value).
template <typename Make>
double measure(Make make, int nprod, int ncons, const sweep_config &cfg) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cfg.reps));
  for (int r = 0; r < cfg.reps; ++r) {
    auto q = make();
    auto res = harness::run_handoff(q, nprod, ncons, cfg.ops);
    if (!res.checksum_ok) {
      std::fprintf(stderr, "CHECKSUM FAILURE (np=%d nc=%d)\n", nprod, ncons);
      std::exit(1);
    }
    samples.push_back(res.ns_per_transfer);
  }
  return harness::summarize(samples).median;
}

// Same, on a default-constructed Q.
template <typename Q>
double measure(int nprod, int ncons, const sweep_config &cfg) {
  return measure([] { return Q(); }, nprod, ncons, cfg);
}

inline void emit(const harness::table &t, const std::string &csv_path,
                 const char *title) {
  std::printf("\n%s\n", title);
  t.print();
  if (!csv_path.empty() && t.write_csv(csv_path))
    std::printf("(csv written to %s)\n", csv_path.c_str());
}

// Full-config form: CSV plus the optional --json series. The JSON header
// records provenance: which memory-order mode the binary was compiled in
// (annotations.hpp's SSQ_MO switch), the source revision, and the host
// record -- CPU count, build type and the adaptive spin policy the queues
// ran with -- so committed BENCH_*.json snapshots are self-describing and
// bench_compare.py can refuse to diff two runs of the same mode as if they
// were a differential.
inline void emit(harness::table &t, const sweep_config &cfg,
                 const char *title) {
  emit(t, cfg.csv, title);
  if (!cfg.json.empty()) {
    t.set_meta("memory_order", SSQ_MEMORY_ORDER_MODE);
#if defined(SSQ_GIT_REV)
    t.set_meta("git_rev", SSQ_GIT_REV);
#else
    t.set_meta("git_rev", "unknown");
#endif
    t.set_meta("hardware_concurrency",
               std::to_string(std::thread::hardware_concurrency()));
    t.set_meta("build_type", SSQ_BUILD_TYPE);
    auto pol = sync::spin_policy::adaptive();
    t.set_meta("spin_policy", "adaptive front=" +
                                  std::to_string(pol.front_spins) +
                                  " back=" + std::to_string(pol.back_spins) +
                                  " yield_every=" +
                                  std::to_string(pol.yield_every));
    if (t.write_json(cfg.json))
      std::printf("(json written to %s)\n", cfg.json.c_str());
  }
}

} // namespace ssq::bench
