// Shared scaffolding for the figure-reproduction benches.
//
// Each figure binary sweeps concurrency levels and prints one row per level
// with one ns/transfer column per algorithm -- the same series the paper
// plots. Every timed cell is the median of --reps runs; with --json the
// table is also written as JSON, each such cell with its quartiles.
//
// Flags (all optional):
//   --levels=1,2,4,...   concurrency sweep
//   --ops=N              transfers per cell   (default 8000)
//   --reps=N             repetitions per cell (default 2; median reported)
//   --json=path          JSON output path (machine-readable series with each
//                        cell's spread and the host record; the committed
//                        BENCH_*.json snapshots use this)
//   --quick              tiny run for smoke-testing (CI)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// Cumulative CPU ticks from /proc/stat's first line: all of them, and
// those stolen by the hypervisor. Two readings give the steal share.
struct cpu_ticks {
  double total = 0, steal = 0;

  static cpu_ticks read() {
    cpu_ticks t;
    std::ifstream f("/proc/stat");
    std::string cpu; // cpu  user nice system idle iowait irq softirq steal
    double v = 0;
    int n = 0;
    for (f >> cpu; n < 8 && f >> v; ++n) t.total += v;
    if (n == 8) t.steal = v;
    return t;
  }
};

struct sweep_config {
  std::vector<int> levels;
  std::uint64_t ops = 8000;
  int reps = 2;
  std::string json;     // empty: no JSON emitted
  harness::options opt; // every flag, for a bench's own
  cpu_ticks start;      // at parse: emit records the steal share since
};

inline sweep_config parse_sweep(int argc, char **argv,
                                std::vector<int> default_levels,
                                std::uint64_t default_ops = 8000) {
  sweep_config cfg;
  cfg.opt = harness::options::parse(argc, argv);
  cfg.levels = cfg.opt.get_int_list("levels", std::move(default_levels));
  // At least one op and one rep: 0 ops would write NaN cells.
  cfg.ops = static_cast<std::uint64_t>(std::max<std::int64_t>(
      1, cfg.opt.get_int("ops", static_cast<std::int64_t>(default_ops))));
  cfg.reps = std::max(1, static_cast<int>(cfg.opt.get_int("reps", 2)));
  cfg.json = cfg.opt.get("json", "");
  if (cfg.opt.has("quick")) {
    cfg.levels.resize(cfg.levels.size() > 3 ? 3 : cfg.levels.size());
    cfg.ops = 1000;
    cfg.reps = 1;
  }
  cfg.start = cpu_ticks::read();
  return cfg;
}

// The one rep loop. `body()` runs one rep and returns one sample per
// column it fills; the result holds each column's summary over cfg.reps.
template <typename Body>
std::vector<harness::summary> repeat(const sweep_config &cfg, Body body) {
  std::vector<std::vector<double>> cols;
  for (int r = 0; r < cfg.reps; ++r) {
    const std::vector<double> s = body();
    cols.resize(s.size());
    for (std::size_t c = 0; c < s.size(); ++c) cols[c].push_back(s[c]);
  }
  std::vector<harness::summary> out;
  for (auto &c : cols) out.push_back(harness::summarize(std::move(c)));
  return out;
}

// One timed (nprod, ncons) handoff run of cfg.ops transfers over q, in
// ns/transfer. A checksum failure ends the process.
template <typename Q>
double handoff(Q &q, int nprod, int ncons, const sweep_config &cfg) {
  auto res = harness::run_handoff(q, nprod, ncons, cfg.ops);
  if (!res.checksum_ok) {
    std::fprintf(stderr, "CHECKSUM FAILURE (np=%d nc=%d)\n", nprod, ncons);
    std::exit(1);
  }
  return res.ns_per_transfer;
}

// ns/transfer of the handoff workload on a fresh queue per rep, built by
// `make()` -- for queues that take constructor arguments (guaranteed
// elision lets `make` return a non-movable queue by value).
template <typename Make>
harness::summary measure(Make make, int nprod, int ncons,
                         const sweep_config &cfg) {
  return repeat(cfg, [&] {
    auto q = make();
    return std::vector{handoff(q, nprod, ncons, cfg)};
  })[0];
}

// Same, on a default-constructed Q.
template <typename Q>
harness::summary measure(int nprod, int ncons, const sweep_config &cfg) {
  return measure([] { return Q(); }, nprod, ncons, cfg);
}

// Print the table; with --json also write it. The JSON header records
// provenance: the memory-order mode (annotations.hpp), the source
// revision, and the host record -- CPU count, build type, the adaptive
// spin policy the queues ran with, the reps behind each median and the
// host's steal share over the run -- so committed BENCH_*.json snapshots
// are self-describing.
inline void emit(harness::table &t, const sweep_config &cfg,
                 const char *title) {
  std::printf("\n%s\n", title);
  t.print();
  if (cfg.json.empty()) return;
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
  t.set_meta("reps", std::to_string(cfg.reps));
  const cpu_ticks now = cpu_ticks::read();
  const double total = now.total - cfg.start.total;
  const double steal = now.steal - cfg.start.steal;
  t.set_meta("steal_pct",
             harness::table::fmt(total > 0 ? 100 * steal / total : 0, 2));
  if (!t.write_json(cfg.json)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json.c_str());
    std::exit(1);
  }
  std::printf("(json written to %s)\n", cfg.json.c_str());
}

} // namespace ssq::bench
