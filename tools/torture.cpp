// torture: long-running randomized stress for the synchronous queues.
//
// Two check modes:
//
//   --check=conserve (default): hammers one implementation with a seeded
//     random mix of every operation from a configurable number of threads,
//     continuously checking conservation (sum/xor/count of values in ==
//     values out), and prints a line of vitals each second.
//
//   --check=linearize: runs the recorded workload from check/driver.hpp --
//     every operation is timestamped into a history and the history is
//     validated by the synchronous-queue oracle (check/oracle.hpp): exact
//     pairing, no cancelled-op transfers, interval synchrony, and FIFO
//     pairing order for the fair variants. A failing history is dumped to
//     torture-history-<impl>-<seed>.log together with the reproducing
//     command line.
//
//   ./torture --impl=new-fair --threads=8 --seconds=30 --seed=42
//             --check=linearize [--fuzz=1]
//   impls: new-fair new-unfair seg-fair java5-fair java5-unfair naive
//          eliminating elim-unfair ltq channel
//   (channel supports --check=linearize only. "eliminating" is an alias
//   for elim-unfair.)
//
// --fuzz=1 turns on the schedule-perturbation points when the build compiled
// them in (-DSSQ_SCHEDULE_FUZZ=ON); otherwise it warns and proceeds. The
// SSQ_FUZZ / SSQ_FUZZ_SEED environment variables work too (any build of any
// binary linking the library).
//
// This is the tool to run for hours under ASan/TSan when touching the
// cores; ctest contains bounded versions of the same checks.
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/java5_sq.hpp"
#include "baselines/naive_sq.hpp"
#include "check/driver.hpp"
#include "check/history.hpp"
#include "check/oracle.hpp"
#include "check/schedule_fuzz.hpp"
#include "core/channel.hpp"
#include "core/eliminating_sq.hpp"
#include "core/linked_transfer_queue.hpp"
#include "core/synchronous_queue.hpp"
#include "harness/options.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

using namespace ssq;

namespace {

struct vitals {
  std::atomic<std::uint64_t> in_sum{0}, out_sum{0};
  std::atomic<std::uint64_t> in_xor{0}, out_xor{0};
  std::atomic<std::uint64_t> produced{0}, consumed{0};
  std::atomic<std::uint64_t> timeouts{0};
};

// Type-erased operations over the chosen implementation (conserve mode).
struct ops_t {
  std::function<void(std::uint64_t)> put;
  std::function<std::uint64_t()> take;
  std::function<bool(std::uint64_t, deadline)> offer;
  std::function<std::optional<std::uint64_t>(deadline)> poll;
  std::function<std::size_t()> length; // 0 if unsupported
};

template <typename Q>
ops_t make_ops(std::shared_ptr<Q> q) {
  ops_t o;
  o.put = [q](std::uint64_t v) { q->put(v); };
  o.take = [q] { return q->take(); };
  if constexpr (requires { q->offer(std::uint64_t{1}, deadline::expired()); }) {
    o.offer = [q](std::uint64_t v, deadline dl) { return q->offer(v, dl); };
  } else { // linked_transfer_queue: the synchronous offer is try_transfer
    o.offer = [q](std::uint64_t v, deadline dl) {
      return q->try_transfer(v, dl);
    };
  }
  o.poll = [q](deadline dl) { return q->poll(dl); };
  if constexpr (requires { q->unsafe_length(); }) {
    o.length = [q] { return q->unsafe_length(); };
  } else {
    o.length = [] { return std::size_t{0}; };
  }
  return o;
}

struct impl_desc {
  ops_t ops;                  // conserve-mode surface (null fns if n/a)
  check::checked_ops checked; // linearize-mode surface (null fns if n/a)
  bool fair = false;
  bool conserve_capable = true;
};

template <typename Q>
impl_desc make_impl_both(std::shared_ptr<Q> q, bool fair) {
  impl_desc d;
  d.ops = make_ops(q);
  d.checked = check::make_checked_ops(q, fair);
  d.fair = fair;
  return d;
}

impl_desc make_impl(const std::string &name) {
  if (name == "new-fair")
    return make_impl_both(
        std::make_shared<synchronous_queue<std::uint64_t, true>>(), true);
  if (name == "new-unfair")
    return make_impl_both(
        std::make_shared<synchronous_queue<std::uint64_t, false>>(), false);
  if (name == "seg-fair")
    return make_impl_both(
        std::make_shared<segmented_synchronous_queue<std::uint64_t>>(), true);
  if (name == "java5-fair")
    return make_impl_both(std::make_shared<java5_sq<std::uint64_t, true>>(),
                          true);
  if (name == "java5-unfair")
    return make_impl_both(std::make_shared<java5_sq<std::uint64_t, false>>(),
                          false);
  if (name == "naive")
    return make_impl_both(std::make_shared<naive_sq<std::uint64_t>>(), false);
  if (name == "eliminating" || name == "elim-unfair")
    return make_impl_both(std::make_shared<eliminating_sq<std::uint64_t>>(),
                          false);
  if (name == "ltq") {
    auto q = std::make_shared<linked_transfer_queue<std::uint64_t>>();
    impl_desc d;
    d.ops = make_ops(q);
    d.checked = check::make_checked_transfer_ops(q);
    d.fair = true;
    return d;
  }
  if (name == "channel") {
    auto ch = std::make_shared<channel<std::uint64_t>>();
    impl_desc d;
    d.checked = check::make_checked_channel_ops(ch);
    d.fair = true;
    d.conserve_capable = false;
    return d;
  }
  std::fprintf(stderr, "unknown --impl=%s\n", name.c_str());
  std::exit(2);
}

int run_conserve(const ops_t &q, int nthreads, int seconds,
                 std::uint64_t seed) {
  vitals v;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> seq{1};

  // Half the threads lean producer, half lean consumer, but everyone does a
  // random mix so role imbalance and direction flips are exercised.
  std::vector<std::thread> ts;
  for (int t = 0; t < nthreads; ++t) {
    ts.emplace_back([&, t] {
      xoshiro256 rng(seed * 1099511628211ULL + static_cast<std::uint64_t>(t));
      bool lean_producer = (t % 2 == 0);
      while (!stop.load(std::memory_order_acquire)) {
        bool produce = rng.chance(lean_producer ? 3 : 1, 4);
        if (produce) {
          std::uint64_t val = seq.fetch_add(1);
          bool sent = false;
          switch (rng.below(3)) {
            case 0: // timed with random small patience
              sent = q.offer(val, deadline::in(std::chrono::microseconds(
                                      rng.below(2000))));
              break;
            case 1: // non-blocking
              sent = q.offer(val, deadline::expired());
              break;
            default: // bounded-blocking (so shutdown stays responsive)
              sent = q.offer(val,
                             deadline::in(std::chrono::milliseconds(20)));
              break;
          }
          if (sent) {
            v.in_sum.fetch_add(val, std::memory_order_relaxed);
            v.in_xor.fetch_xor(val, std::memory_order_relaxed);
            v.produced.fetch_add(1, std::memory_order_relaxed);
          } else {
            v.timeouts.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          std::optional<std::uint64_t> got;
          switch (rng.below(2)) {
            case 0:
              got = q.poll(deadline::in(
                  std::chrono::microseconds(rng.below(2000))));
              break;
            default:
              got = q.poll(deadline::expired());
              break;
          }
          if (got) {
            v.out_sum.fetch_add(*got, std::memory_order_relaxed);
            v.out_xor.fetch_xor(*got, std::memory_order_relaxed);
            v.consumed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (int s = 0; s < seconds; ++s) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    std::printf("[%2d s] produced=%llu consumed=%llu timeouts=%llu "
                "in-flight=%lld retired~%zu\n",
                s + 1,
                static_cast<unsigned long long>(v.produced.load()),
                static_cast<unsigned long long>(v.consumed.load()),
                static_cast<unsigned long long>(v.timeouts.load()),
                static_cast<long long>(v.produced.load()) -
                    static_cast<long long>(v.consumed.load()),
                mem::hazard_domain::global().approx_retired());
    std::fflush(stdout);
  }
  stop.store(true, std::memory_order_release);
  for (auto &t : ts) t.join();

  // Drain whatever successful producers left paired-up... in a synchronous
  // queue nothing can remain once all threads stopped, EXCEPT values whose
  // producer succeeded exactly as we shut the consumer side down. Drain
  // with non-blocking polls.
  for (;;) {
    auto got = q.poll(deadline::in(std::chrono::milliseconds(50)));
    if (!got) break;
    v.out_sum.fetch_add(*got);
    v.out_xor.fetch_xor(*got);
    v.consumed.fetch_add(1);
  }
  // The traversal behind length() is only safe once the queue is quiescent.
  std::printf("linked=%zu after drain\n", q.length());

  bool ok = v.in_sum.load() == v.out_sum.load() &&
            v.in_xor.load() == v.out_xor.load() &&
            v.produced.load() == v.consumed.load();
  std::printf("%s: produced=%llu consumed=%llu sum %s xor %s\n",
              ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(v.produced.load()),
              static_cast<unsigned long long>(v.consumed.load()),
              v.in_sum.load() == v.out_sum.load() ? "ok" : "MISMATCH",
              v.in_xor.load() == v.out_xor.load() ? "ok" : "MISMATCH");
  return ok ? 0 : 1;
}

void dump_failure(const std::string &impl, std::uint64_t seed, int nthreads,
                  int seconds, bool fuzz, const check::report &rep,
                  std::vector<check::event> events) {
  std::string path =
      "torture-history-" + impl + "-" + std::to_string(seed) + ".log";
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "# repro: ./torture --impl=%s --check=linearize --threads=%d "
               "--seconds=%d --seed=%llu%s\n",
               impl.c_str(), nthreads, seconds,
               static_cast<unsigned long long>(seed), fuzz ? " --fuzz=1" : "");
  std::fprintf(f, "# %zu violation(s):\n%s", rep.violations.size(),
               check::summarize(rep, 32).c_str());
  check::dump_history(f, std::move(events));
  std::fclose(f);
  std::fprintf(stderr, "failing history written to %s\n", path.c_str());
}

int run_linearize(const std::string &impl, impl_desc &d, int nthreads,
                  int seconds, std::uint64_t seed, bool fuzz,
                  std::uint64_t max_ops) {
  check::driver_cfg cfg;
  cfg.threads = nthreads;
  cfg.seed = seed;
  cfg.duration = std::chrono::milliseconds(seconds * 1000);
  cfg.max_ops_per_thread = max_ops;

  if (!d.checked.produce) {
    std::fprintf(stderr, "--impl=%s does not support --check=linearize\n",
                 impl.c_str());
    return 2;
  }

  check::recorder rec(static_cast<std::size_t>(nthreads) + 1,
                      cfg.max_ops_per_thread ? cfg.max_ops_per_thread : 1024);
  check::driver_stats st;
  std::atomic<bool> stop{false};

  // Vitals printer + stopper: run_mixed blocks until its workers finish, so
  // the clock runs beside it.
  std::thread vit([&] {
    for (int s = 0; s < seconds; ++s) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      std::printf("[%2d s] produced=%llu consumed=%llu timeouts=%llu "
                  "misses=%llu events=%zu\n",
                  s + 1,
                  static_cast<unsigned long long>(st.produced.load()),
                  static_cast<unsigned long long>(st.consumed.load()),
                  static_cast<unsigned long long>(st.timeouts.load()),
                  static_cast<unsigned long long>(st.misses.load()),
                  rec.size());
      std::fflush(stdout);
    }
    stop.store(true, std::memory_order_release);
  });
  check::run_mixed(d.checked, cfg, rec, &st, &stop);
  stop.store(true, std::memory_order_release); // op budget may end the run
  vit.join();

  check::rules r;
  r.fifo = d.fair;
  r.require_all_consumed = true;
  auto events = rec.collect();
  check::report rep = check::check_history(events, r);
  std::printf("%s: events=%zu pairs=%zu cancelled=%zu violations=%zu "
              "(fifo %s)\n",
              rep.ok() ? "PASS" : "FAIL", rep.events, rep.pairs,
              rep.cancelled, rep.violations.size(),
              r.fifo ? "checked" : "n/a");
  if (!rep.ok()) {
    std::fprintf(stderr, "%s", check::summarize(rep).c_str());
    dump_failure(impl, seed, nthreads, seconds, fuzz, rep, std::move(events));
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  auto opt = harness::options::parse(argc, argv);
  const std::string impl = opt.get("impl", "new-unfair");
  const std::string mode = opt.get("check", "conserve");
  const int nthreads = static_cast<int>(opt.get_int("threads", 8));
  const int seconds = static_cast<int>(opt.get_int("seconds", 10));
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const bool want_fuzz = opt.get_int("fuzz", 0) != 0;
  const std::uint64_t max_ops =
      static_cast<std::uint64_t>(opt.get_int("max-ops", 200000));

  bool fuzz_on = false;
  if (want_fuzz) {
    if (fuzz::compiled_with_schedule_fuzz()) {
#if defined(SSQ_SCHEDULE_FUZZ)
      fuzz::config fc;
      fc.seed = seed;
      fuzz::enable(fc);
#endif
      fuzz_on = true;
    } else {
      std::fprintf(stderr,
                   "--fuzz=1 requested but this build has no perturbation "
                   "points (rebuild with -DSSQ_SCHEDULE_FUZZ=ON)\n");
    }
  }
  std::printf("torture: impl=%s check=%s threads=%d seconds=%d seed=%llu "
              "fuzz=%s\n",
              impl.c_str(), mode.c_str(), nthreads, seconds,
              static_cast<unsigned long long>(seed),
              fuzz_on ? "on"
                      : (fuzz::compiled_with_schedule_fuzz() ? "off"
                                                             : "not-compiled"));

  impl_desc d = make_impl(impl);
  if (mode == "conserve") {
    if (!d.conserve_capable) {
      std::fprintf(stderr,
                   "--impl=%s supports --check=linearize only\n", impl.c_str());
      return 2;
    }
    return run_conserve(d.ops, nthreads, seconds, seed);
  }
  if (mode == "linearize")
    return run_linearize(impl, d, nthreads, seconds, seed, fuzz_on, max_ops);
  std::fprintf(stderr, "unknown --check=%s (conserve|linearize)\n",
               mode.c_str());
  return 2;
}
