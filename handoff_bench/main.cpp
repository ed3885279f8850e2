// handoff_bench: drives the library's public API through one workload and
// prints every metric by name and unit. The last line of standard output is
// the result: {"correct", "attempted", "failed", "metrics"}.
//
//   handoff_bench --workload fanin|rpc|serve --seed N --seconds S --trace 0|1
//                 [--inject none|corrupt|drop] [--trace-out FILE]
//                 [--git-rev REV]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: counter deltas over an untraced phase,
// spans over a traced phase, the layer ladder, and what tracing cost.
// The process exits 1 if any check failed, 2 on a usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ladder.hpp"
#include "memory/hazard.hpp"
#include "support/annotations.hpp"
#include "support/diagnostics.hpp"
#include "sync/spin_policy.hpp"
#include "workload.hpp"

#ifndef HB_BUILD_TYPE
#define HB_BUILD_TYPE "unknown"
#endif

namespace hb {

shape shape_of(const std::string &w) {
  // Latency windows last ~8 ms (fanin, per producer), ~6 ms (rpc) and
  // 20 ms (serve: 100 tasks at 5000/s).
  if (w == "fanin") return {200'000, 50'000, 2'500};
  if (w == "rpc") return {20'000, 5'000, 500};
  return {1'000, 500, 100}; // serve: 0.2 s of warm-up at 5k tasks/s
}

namespace {

using ssq::diag::id;

constexpr int setup_reps = 7;
constexpr std::uint64_t ladder_round_trips = 20'000;
// A traced run splits --seconds: untraced phase, traced phase, and the
// ladder (fixed op count) in what is left.
constexpr double traced_share = 0.35;

// ------------------------------------------------------------------ json

std::string num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "null";
  char b[40];
  std::snprintf(b, sizeof b, "%.12g", v);
  return b;
}
std::string quote(const std::string &s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

class jobj {
 public:
  jobj &n(const std::string &k, double v) { return raw(k, num(v)); }
  jobj &s(const std::string &k, const std::string &v) {
    return raw(k, quote(v));
  }
  jobj &raw(const std::string &k, const std::string &v) {
    return raw_pair(quote(k) + ": " + v);
  }
  jobj &raw_pair(const std::string &kv) {
    body_ += (body_.empty() ? "" : ", ") + kv;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarr(const std::vector<std::string> &items) {
  std::string o = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    o += (i ? ", " : "") + items[i];
  return o + "]";
}

// --------------------------------------------------------------- report

struct metric {
  std::string name, unit;
  double value;
  std::string base; // what the value is per, and where it was measured
};

struct report {
  std::vector<metric> metrics;
  std::vector<std::string> fields; // further "key": value pairs of the report
  std::uint64_t side_failed = 0;   // failed checks in the ladder and probe

  void add(std::string name, std::string unit, double v, std::string base) {
    metrics.push_back({std::move(name), std::move(unit), v, std::move(base)});
  }
  void field(const std::string &key, const std::string &json) {
    fields.push_back(quote(key) + ": " + json);
  }
};

// -------------------------------------------------------------- driving

struct plan {
  int reps = 1;
  double untraced_s = 0, traced_s = 0;
};

struct drive_out {
  std::vector<double> setup_s;
  ssq::diag::snapshot untraced_delta;
  std::uint64_t backlog = 0; // retired, not yet freed, at the end of timing
  double traced_wall_s = 0;
};

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Set-up repetitions, then the timed phases on the last repetition.
drive_out drive(shared &sh, const std::function<std::unique_ptr<load>()> &make,
                const plan &p) {
  drive_out out;
  for (int rep = 0; rep < p.reps; ++rep) {
    sh.reset_for_rep();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<load> l = make();
    while (sh.ctl.warm_ns.load() == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    out.setup_s.push_back(
        static_cast<double>(sh.ctl.warm_ns.load() - t0) / 1e9);
    if (rep + 1 < p.reps) {
      l->finish();
      continue;
    }
    auto move_to = [&](int ph) {
      sh.ctl.ph.store(ph);
      l->on_phase(ph);
    };
    if (p.untraced_s > 0) {
      const auto d0 = ssq::diag::snapshot::take();
      move_to(untraced);
      sleep_s(p.untraced_s);
      out.untraced_delta = ssq::diag::snapshot::take() - d0;
    }
    if (p.traced_s > 0) {
      const std::int64_t t = now_ns();
      move_to(traced);
      sleep_s(p.traced_s);
      out.traced_wall_s = static_cast<double>(now_ns() - t) / 1e9;
    }
    out.backlog = ssq::mem::hazard_domain::global().approx_retired();
    move_to(stopping);
    l->finish();
  }
  return out;
}

histogram merged_latency(const shared &sh, int slot) {
  histogram h;
  for (const auto &r : sh.rec) h.merge(r->lat[slot]);
  return h;
}

// Medians over every load thread's latency windows of one measured phase.
struct windowed {
  double p50_us = 0, p90_us = 0;
  std::size_t windows = 0;
};
windowed windowed_latency(const shared &sh, int slot) {
  std::vector<double> p50, p90;
  for (const auto &r : sh.rec) {
    const auto a = r->lat_windows.p50s(slot), b = r->lat_windows.p90s(slot);
    p50.insert(p50.end(), a.begin(), a.end());
    p90.insert(p90.end(), b.begin(), b.end());
  }
  return {median(p50) / 1e3, median(p90) / 1e3, p50.size()};
}

// Span totals of one name over several tracers.
tracer::totals merged(const std::vector<const tracer *> &trs, sp name) {
  tracer::totals t;
  for (const tracer *tr : trs) {
    if (!tr) continue;
    t.dur.merge(tr->of(name).dur);
    t.self.merge(tr->of(name).self);
    t.self_ns += tr->of(name).self_ns;
  }
  return t;
}

std::vector<const tracer *> tracers_of(const shared &sh) {
  std::vector<const tracer *> v;
  for (const auto &r : sh.rec) v.push_back(r->tr.get());
  return v;
}

std::string op_noun(const std::string &w) {
  if (w == "fanin") return "transfers";
  if (w == "rpc") return "round trips";
  return "tasks";
}

std::string count_str(std::uint64_t n) {
  char b[32];
  std::snprintf(b, sizeof b, "%" PRIu64, n);
  return b;
}

// ------------------------------------------------------------------ host

std::string host_json(const config &cfg, double steal_pct) {
  const auto pol = ssq::sync::spin_policy::adaptive();
  return jobj()
      .n("nproc", online_cpus())
      .n("hardware_concurrency", std::thread::hardware_concurrency())
      .s("build_type", HB_BUILD_TYPE)
      .s("memory_order_mode", SSQ_MEMORY_ORDER_MODE)
      .raw("spin_policy_adaptive", jobj()
                                       .n("front_spins", pol.front_spins)
                                       .n("back_spins", pol.back_spins)
                                       .n("yield_every", pol.yield_every)
                                       .str())
      .s("git_rev", cfg.git_rev)
      .n("steal_pct", steal_pct)
      .str();
}

double steal_pct(const cpu_ticks &a, const cpu_ticks &b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total : 0;
}

// ----------------------------------------------------- end-to-end metrics

void end_to_end(const config &cfg, const shared &sh, const serve_stats &st,
                const drive_out &d, report &rep) {
  const auto win = sh.win.in_phase(untraced);
  const histogram lat = merged_latency(sh, 0);
  const windowed wl = windowed_latency(sh, 0);
  const std::string noun = op_noun(cfg.workload);
  rep.add("xfer_per_s", "1/s", win.ops_per_s,
          noun + " per second, median of " + count_str(win.windows) +
              " windows of " + count_str(sh.win.per_window()));
  const std::string lat_base =
      "median of " + count_str(wl.windows) + " windows of " +
      count_str(shape_of(cfg.workload).lat_per_window) + " samples (" +
      count_str(lat.count()) + " samples in all; whole-phase ";
  rep.add("lat_p50_us", "us", wl.p50_us,
          lat_base + "p50 " + num(lat.quantile_us(0.5)) + ")");
  rep.add("lat_p90_us", "us", wl.p90_us,
          lat_base + "p90 " + num(lat.quantile_us(0.9)) + ")");
  rep.add("cpu_us_per_op", "us", win.cpu_us_per_op,
          std::string("process CPU per op") +
              (cfg.workload == "serve" ? ", generator thread excluded" : "") +
              ", median of windows");
  rep.add("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM of the process");
  rep.add("setup_s", "s", median(d.setup_s),
          "median of " + count_str(d.setup_s.size()) + " set-ups");

  std::vector<std::string> reps;
  for (double s : d.setup_s) reps.push_back(num(s));
  rep.field("setup_s_reps", jarr(reps));
  auto rate_at = [&](double q) {
    const auto &r = win.rates;
    if (r.empty()) return 0.0;
    return r[static_cast<std::size_t>(q * static_cast<double>(r.size() - 1))];
  };
  rep.field("window_rates", jobj()
                                .n("p10", rate_at(0.1))
                                .n("p25", rate_at(0.25))
                                .n("p50", rate_at(0.5))
                                .n("p75", rate_at(0.75))
                                .n("p90", rate_at(0.9))
                                .str());
  rep.field("latency_whole_phase", jobj()
                                .n("p50_us", lat.quantile_us(0.5))
                                .n("p90_us", lat.quantile_us(0.9))
                                .n("p99_us", lat.quantile_us(0.99))
                                .n("p999_us", lat.quantile_us(0.999))
                                .n("samples", static_cast<double>(lat.count()))
                                .str());
  if (cfg.workload == "serve")
    rep.field("loadgen_late_us", jobj()
                                     .n("p50", st.late[0].quantile_us(0.5))
                                     .n("p90", st.late[0].quantile_us(0.9))
                                     .n("p99", st.late[0].quantile_us(0.99))
                                     .str());
}

// ------------------------------------------------------ per-layer metrics

void layer_counters(const config &cfg, const shared &sh, const drive_out &d,
                    report &rep) {
  const double ops = static_cast<double>(sh.ops[0] ? sh.ops[0] : 1);
  const std::string base =
      count_str(sh.ops[0]) + " " + op_noun(cfg.workload) + ", untraced phase";
  auto per_op = [&](const char *name, id which) {
    rep.add(name, "count", static_cast<double>(d.untraced_delta[which]) / ops,
            count_str(d.untraced_delta[which]) + " over " + base);
  };
  per_op("sync.park_per_op", id::park);
  per_op("sync.unpark_per_op", id::unpark);
  per_op("sync.spin_per_op", id::spin_retry);
  per_op("core.cas_fail_per_op", id::cas_fail);
  per_op("core.seg_alloc_per_op", id::seg_alloc);
  per_op("core.cell_poison_per_op", id::cell_poison);
  per_op("memory.pool_recycle_per_op", id::pool_recycle);
  per_op("memory.pool_fresh_per_op", id::pool_fresh);
  per_op("memory.retire_per_op", id::node_retire);
  per_op("memory.free_per_op", id::node_free);
  per_op("memory.hp_scan_per_op", id::hp_scan);
  per_op("codec.box_per_op", id::box_alloc);
  // Not node_retire - node_free: the cores bump node_free when they retire
  // ("freed, possibly deferred"), so that difference is never positive.
  rep.add("memory.backlog_nodes", "count", static_cast<double>(d.backlog),
          "hazard_domain::global().approx_retired() at the end of the timed "
          "phase");
}

void put_take(const std::vector<const tracer *> &src, const std::string &where,
              report &rep) {
  const auto put = merged(src, sp::put);
  const auto take = merged(src, sp::take);
  rep.add("core.put_us", "us", put.dur.quantile_us(0.5),
          "p50 of " + count_str(put.dur.count()) + " put spans, " + where);
  rep.add("core.take_us", "us", take.dur.quantile_us(0.5),
          "p50 of " + count_str(take.dur.count()) + " take spans, " + where);
}

// Executor and generator numbers of a serve-shaped run's traced phase.
void executor_metrics(const shared &sh, const serve_stats &st,
                      const std::string &where, report &rep) {
  const std::string tasks = count_str(sh.ops[1]) + " tasks, " + where;
  const auto exec = merged({sh.rec[0]->tr.get()}, sp::execute);
  rep.add("executor.submit_us", "us", exec.dur.quantile_us(0.5),
          "p50 of " + count_str(exec.dur.count()) + " execute spans, " + where);
  rep.add("executor.queue_wait_us", "us", st.queue_wait[1].quantile_us(0.5),
          "p50 over " + tasks + "; " + count_str(st.negative_wait[1]) +
              " started before execute() returned, counted as 0");
  rep.add("executor.offer_hit_ratio", "ratio",
          1.0 - static_cast<double>(st.spawned[1]) /
                    static_cast<double>(sh.ops[1] ? sh.ops[1] : 1),
          "1 - " + count_str(st.spawned[1]) + " spawns / " + tasks);
  rep.add("executor.pool_size_max", "count",
          static_cast<double>(st.pool_size_max),
          "largest_pool_size(), " + where);
  rep.add("loadgen.late_p50_us", "us", st.late[1].quantile_us(0.5),
          "submit - due over " + tasks);
  rep.add("loadgen.late_p90_us", "us", st.late[1].quantile_us(0.9),
          "submit - due over " + tasks);
}

void ladder_metrics(const std::vector<std::unique_ptr<rung>> &ladder,
                    report &rep) {
  std::printf("\nlayer ladder (rpc shape, %" PRIu64
              " round trips per rung after %" PRIu64 " warm-up)\n",
              ladder_round_trips, ladder_round_trips / 10);
  std::printf("%-10s %9s %9s %9s %8s %8s %8s %8s\n", "rung", "p50_us",
              "p90_us", "adds_us", "park/rt", "spin/rt", "poison", "seg/rt");
  std::vector<std::string> rows;
  for (const auto &r : ladder) {
    rep.side_failed += r->failed;
    const double p50 = r->rtt.quantile_us(0.5);
    double below = 0;
    for (const auto &b : ladder)
      if (std::strcmp(b->name, r->below) == 0) below = b->rtt.quantile_us(0.5);
    const double adds = p50 - below;
    const double n = static_cast<double>(r->n);
    auto per_rt = [&](id w) { return static_cast<double>(r->delta[w]) / n; };
    std::printf("%-10s %9.2f %9.2f %9.2f %8.3f %8.1f %8.3f %8.4f\n", r->name,
                p50, r->rtt.quantile_us(0.9), adds, per_rt(id::park),
                per_rt(id::spin_retry), per_rt(id::cell_poison),
                per_rt(id::seg_alloc));
    rep.add(r->metric, "us", p50,
            "p50 of " + count_str(r->rtt.count()) +
                " round trips, ladder rung " + r->name);
    rows.push_back(jobj()
                       .s("rung", r->name)
                       .s("below", r->below)
                       .n("p50_us", p50)
                       .n("p90_us", r->rtt.quantile_us(0.9))
                       .n("adds_us", adds)
                       .n("round_trips", n)
                       .n("park_per_rt", per_rt(id::park))
                       .n("unpark_per_rt", per_rt(id::unpark))
                       .n("spin_per_rt", per_rt(id::spin_retry))
                       .n("cell_poison_per_rt", per_rt(id::cell_poison))
                       .n("seg_alloc_per_rt", per_rt(id::seg_alloc))
                       .n("failed", static_cast<double>(r->failed))
                       .str());
  }
  rep.field("ladder", jarr(rows));
}

void self_time(const config &cfg, const std::vector<const tracer *> &src,
               double wall_s, report &rep) {
  const int threads = cfg.workload == "rpc" ? 2 : 3;
  const double thread_ns = wall_s * 1e9 * threads;
  std::printf("\nself time, %s traced phase (%.2f s x %d load threads)\n",
              cfg.workload.c_str(), wall_s, threads);
  std::printf("%-12s %10s %10s %10s %10s\n", "span", "count", "dur_p50_us",
              "self_p50_us", "self_%");
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < sp_count; ++i) {
    const sp name = static_cast<sp>(i);
    const auto t = merged(src, name);
    if (t.dur.count() == 0) continue;
    const double share =
        thread_ns > 0 ? 100.0 * static_cast<double>(t.self_ns) / thread_ns : 0;
    std::printf("%-12s %10" PRIu64 " %10.2f %10.2f %10.2f\n", sp_name(name),
                t.dur.count(), t.dur.quantile_us(0.5), t.self.quantile_us(0.5),
                share);
    rows.push_back(jobj()
                       .s("span", sp_name(name))
                       .n("count", static_cast<double>(t.dur.count()))
                       .n("dur_p50_us", t.dur.quantile_us(0.5))
                       .n("self_p50_us", t.self.quantile_us(0.5))
                       .n("self_total_ms", static_cast<double>(t.self_ns) / 1e6)
                       .n("self_share_pct", share)
                       .str());
  }
  rep.field("self_time", jarr(rows));
}

void tracing_cost(const config &cfg, const shared &sh, report &rep) {
  const auto win_u = sh.win.in_phase(untraced), win_t = sh.win.in_phase(traced);
  const double u = win_u.ops_per_s;
  const double p50_u = windowed_latency(sh, 0).p50_us;
  const double p50_t = windowed_latency(sh, 1).p50_us;
  rep.add("trace.overhead_pct", "%",
          u > 0 ? 100.0 * (u - win_t.ops_per_s) / u : 0,
          "xfer_per_s untraced " + num(u) + " vs traced " +
              num(win_t.ops_per_s) +
              (cfg.workload == "serve" ? " (open loop: the rate is fixed)"
                                       : ""));
  rep.add("trace.overhead_p50_pct", "%",
          p50_u > 0 ? 100.0 * (p50_t - p50_u) / p50_u : 0,
          "lat_p50 untraced " + num(p50_u) + " us vs traced " + num(p50_t) +
              " us");
}

using span_sources = std::vector<std::pair<std::string, const tracer *>>;

void write_spans(const config &cfg, const span_sources &src) {
  if (cfg.trace_out.empty()) return;
  std::FILE *f = std::fopen(cfg.trace_out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", cfg.trace_out.c_str());
    return;
  }
  std::fprintf(f, "source,thread,name,id,parent,op,start_ns,end_ns\n");
  for (const auto &[source, t] : src)
    if (t) t->write(f, source.c_str());
  std::fclose(f);
}

// Counters from the untraced phase, spans from the traced phase, then the
// ladder and, where the workload has no executor, the serve-shaped probe.
// A layer the workload does not call is measured on the rung that calls it.
void per_layer(const config &cfg, const shared &sh, const serve_stats &st,
               const drive_out &d, report &rep) {
  layer_counters(cfg, sh, d, rep);
  const std::vector<const tracer *> own = tracers_of(sh);
  span_sources spans;
  for (const tracer *t : own) spans.emplace_back(cfg.workload, t);

  const auto ladder = run_ladder(cfg.seed, ladder_round_trips);
  const rung *facade = nullptr;
  for (const auto &r : ladder) {
    if (std::strcmp(r->name, "facade") == 0) facade = r.get();
    spans.emplace_back(std::string("ladder.") + r->name, r->client.get());
    spans.emplace_back(std::string("ladder.") + r->name, r->server.get());
  }
  if (cfg.workload == "serve")
    put_take({facade->client.get(), facade->server.get()},
             "ladder facade rung (serve makes no put/take calls)", rep);
  else
    put_take(own, "workload traced phase", rep);

  config probe_cfg = cfg; // outlives probe, which refers to it
  probe_cfg.workload = "serve";
  probe_cfg.inject = fault::none;
  std::unique_ptr<shared> probe; // outlives `spans`' use of its tracers
  serve_stats probe_st;
  if (cfg.workload == "serve") {
    executor_metrics(sh, st, "serve traced phase", rep);
  } else {
    probe = std::make_unique<shared>(probe_cfg);
    drive(*probe, [&] { return make_serve(*probe, probe_st); },
          plan{1, 0, 0.5});
    rep.side_failed += probe->failed;
    executor_metrics(*probe, probe_st,
                     "executor rung: serve shape, 0.5 s traced", rep);
    for (const tracer *t : tracers_of(*probe))
      spans.emplace_back("executor_probe", t);
  }

  ladder_metrics(ladder, rep);
  self_time(cfg, own, d.traced_wall_s, rep);
  tracing_cost(cfg, sh, rep);
  write_spans(cfg, spans);
}

// ------------------------------------------------------------------- run

int run(const config &cfg) {
  const cpu_ticks ticks0 = cpu_ticks::read();
  shared sh(cfg);
  serve_stats st;
  const double traced_s = cfg.trace ? cfg.seconds * traced_share : 0;
  const plan p{cfg.trace ? 1 : setup_reps,
               cfg.trace ? traced_s : cfg.seconds, traced_s};
  const drive_out d = drive(
      sh,
      [&]() -> std::unique_ptr<load> {
        if (cfg.workload == "fanin") return make_fanin(sh);
        if (cfg.workload == "rpc") return make_rpc(sh);
        return make_serve(sh, st);
      },
      p);

  std::printf("handoff_bench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);
  report rep;
  if (cfg.trace)
    per_layer(cfg, sh, st, d, rep);
  else
    end_to_end(cfg, sh, st, d, rep);
  const double steal = steal_pct(ticks0, cpu_ticks::read());
  if (cfg.trace)
    rep.add("host.steal_pct", "%", steal,
            "/proc/stat steal share over the run");

  const std::uint64_t failed = sh.failed + rep.side_failed;
  const bool correct = failed == 0;

  // Human-readable lines, then the full report, then the result.
  std::printf("\n%-30s %14s %-6s %s\n", "metric", "value", "unit", "base");
  for (const metric &m : rep.metrics)
    std::printf("%-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  std::printf("checks: %s (%" PRIu64 " attempted, %" PRIu64 " failed, %" PRIu64
              " refused)\n",
              correct ? "pass" : "FAIL", sh.attempted, failed, sh.refused);

  jobj metrics, bases;
  for (const metric &m : rep.metrics) {
    metrics.raw(m.name, jobj().n("value", m.value).s("unit", m.unit).str());
    bases.s(m.name, m.base);
  }
  jobj full;
  full.s("workload", cfg.workload)
      .n("seed", static_cast<double>(cfg.seed))
      .n("seconds", cfg.seconds)
      .n("trace", cfg.trace ? 1 : 0)
      .raw("host", host_json(cfg, steal))
      .raw("bases", bases.str());
  for (const std::string &f : rep.fields) full.raw_pair(f);
  if (cfg.trace)
    full.raw("notes",
             jarr({quote("segment_queue never bumps cas_fail: "
                         "core.cas_fail_per_op reads 0 on rpc by construction"),
                   quote("per-op counters are process-wide diag deltas over "
                         "the untraced phase; spans are taken in the traced "
                         "phase")}));
  std::printf("{\"report\": %s}\n", full.str().c_str());
  std::printf("%s\n", jobj()
                          .raw("correct", correct ? "true" : "false")
                          .n("attempted", static_cast<double>(sh.attempted))
                          .n("failed", static_cast<double>(failed))
                          .raw("metrics", metrics.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage(const char *msg) {
  std::fprintf(stderr,
               "error: %s\nusage: handoff_bench --workload fanin|rpc|serve "
               "--seed N --seconds S --trace 0|1 "
               "[--inject none|corrupt|drop] [--trace-out FILE] "
               "[--git-rev REV]\n",
               msg);
  return 2;
}

} // namespace
} // namespace hb

int main(int argc, char **argv) {
  hb::pin_self(0);
  hb::config cfg;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return hb::usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char *end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end || v.empty())
        return hb::usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(cfg.seconds >= 1 && cfg.seconds <= 120))
        return hb::usage("--seconds takes a number from 1 to 120");
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return hb::usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (a == "--inject") {
      if (v == "none") cfg.inject = hb::fault::none;
      else if (v == "corrupt") cfg.inject = hb::fault::corrupt;
      else if (v == "drop") cfg.inject = hb::fault::drop;
      else return hb::usage("--inject takes none, corrupt or drop");
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else if (a == "--git-rev") {
      cfg.git_rev = v;
    } else {
      return hb::usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload != "fanin" && cfg.workload != "rpc" &&
      cfg.workload != "serve")
    return hb::usage("--workload takes fanin, rpc or serve");
  if (!have_seed || !have_seconds)
    return hb::usage("--seed and --seconds are required");
  return hb::run(cfg);
}
