// serve: open loop. One generator thread submits trivial tasks at a fixed
// rate, far below capacity, to a cached_thread_pool capped at two workers
// with a keep-alive longer than any idle gap -- the paper's Figure 6
// executor path (offer to an idle worker, timed poll, one futex wake per
// task) in the regime where a worker's spin can never catch the next task.
//
// Latency is timed from each task's due time to its start, so a stall
// charges every task it delays. The generator's own lateness and CPU are
// recorded separately and kept out of the library's numbers.
//
// Checked: every task ran exactly once with the right result, none was
// refused, none was left unrun. Task records live in a fixed ring that the
// generator settles as it goes, so resident memory does not grow with the
// run length.
#include <pthread.h>
#include <sys/prctl.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "executor/pools.hpp"
#include "support/relax.hpp"
#include "workload.hpp"

namespace hb {
namespace {

class serve final : public load {
 public:
  serve(shared &sh, serve_stats &st)
      : sh_(sh),
        st_(st),
        warm_(sh.warmup_ops),
        pool_(ssq::executor_config{0, 2, std::chrono::seconds(60)}) {
    generator_ = load_thread(1, [this] { generate(); });
  }

  ~serve() override { stop(); }

  void on_phase(int ph) override { spawned_at_[ph] = pool_.spawned_count(); }

  void finish() override {
    stop();
    const std::uint64_t ring = st_.tasks.size();
    for (std::uint64_t k = submitted_ > ring ? submitted_ - ring : 0;
         k < submitted_; ++k)
      settle(k);
    sh_.attempted += submitted_; // settle() counted the refused as failed
    sh_.refused += refused_;
    const int end_untraced = sh_.cfg.trace ? traced : stopping;
    st_.spawned[0] = spawned_at_[end_untraced] - spawned_at_[untraced];
    if (sh_.cfg.trace)
      st_.spawned[1] = spawned_at_[stopping] - spawned_at_[traced];
    st_.pool_size_max = pool_.largest_pool_size();
  }

 private:
  static constexpr std::int64_t rate_per_s = 5000;
  // The generator sleeps to this far before a due time, then spins: in a
  // KVM guest a timer wake-up lands tens of microseconds late.
  static constexpr std::int64_t spin_ns = 50'000;

  void stop() {
    if (!generator_.joinable()) return;
    sh_.ctl.ph.store(stopping);
    generator_.join();
    pool_.shutdown();
    pool_.join();
  }

  static void wait_until(std::int64_t due) {
    if (due - now_ns() > spin_ns) {
      const std::int64_t wake = due - spin_ns;
      timespec ts{static_cast<time_t>(wake / 1'000'000'000),
                  static_cast<long>(wake % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    }
    while (now_ns() < due) ssq::cpu_relax();
  }

  // Fold task k's record into the histograms and checks, once it has run.
  // The generator settles each record before its ring slot is reused;
  // finish() settles the rest.
  void settle(std::uint64_t k) {
    const serve_stats::task &r = st_.tasks[k % st_.tasks.size()];
    const std::int64_t give_up = now_ns() + 10'000'000'000;
    while (!r.done.load(std::memory_order_acquire) && now_ns() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (!r.done.load(std::memory_order_acquire) ||
        r.runs.load(std::memory_order_relaxed) != 1 ||
        r.out != result_of(r.payload))
      ++sh_.failed;
    if (!measured(r.phase)) return;
    const int s = slot_of(r.phase);
    const std::int64_t due =
        base_ns_ + static_cast<std::int64_t>(k) * period_ns_;
    sh_.rec[0]->record(r.phase, r.start_ns - due);
    st_.late[s].record(r.submit_ns - due);
    if (r.start_ns < r.ret_ns) ++st_.negative_wait[s];
    st_.queue_wait[s].record(r.start_ns - r.ret_ns);
    ++sh_.ops[s];
    if (tracer *tr = sh_.rec[1]->tracing(r.phase))
      tr->add(span{r.start_ns, r.end_ns, 0, r.exec_span, k, sp::task});
  }

  void generate() {
    // Default timer slack (50 us) would make the generator, not the
    // library, the largest term in a 15 us latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    pthread_getcpuclockid(pthread_self(), &gen_clock_);
    thread_rec &rec = *sh_.rec[0];
    const std::uint64_t ring = st_.tasks.size();
    ssq::xoshiro256 rng(stream_seed(sh_.cfg.seed, 0));
    period_ns_ = 1'000'000'000 / rate_per_s;
    base_ns_ = now_ns() + period_ns_;
    std::uint64_t k = 0;
    for (;; ++k) {
      const int ph = sh_.ctl.read();
      if (ph == stopping) break;
      if (k >= ring) settle(k - ring);
      serve_stats::task &r = st_.tasks[k % ring];
      r.payload = rng.next();
      r.out = 0;
      r.start_ns = r.end_ns = 0;
      r.runs.store(0, std::memory_order_relaxed);
      r.done.store(false, std::memory_order_relaxed);
      r.phase = ph;
      wait_until(base_ns_ + static_cast<std::int64_t>(k) * period_ns_);
      r.submit_ns = now_ns();
      bool ok;
      {
        tracer *tr = rec.tracing(ph);
        span_guard g(tr, sp::execute, k);
        r.exec_span = tr ? tr->open_id() : 0;
        ok = pool_.execute(ssq::unique_task([this, k] { run_task(k); }));
      }
      r.ret_ns = now_ns();
      if (!ok) {
        ++refused_;
        r.done.store(true, std::memory_order_release); // settles as a failure
      }
      if (k + 1 == warm_) sh_.ctl.warm_done();
    }
    submitted_ = k;
    // Workers read this thread's CPU clock when they close a window, so
    // stay alive until every task handed over has run.
    const std::int64_t give_up = now_ns() + 10'000'000'000;
    while (done_.load(std::memory_order_acquire) < k - refused_ &&
           now_ns() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  void run_task(std::uint64_t k) {
    serve_stats::task &r = st_.tasks[k % st_.tasks.size()];
    // Pool workers are the library's threads; each pins itself to its own
    // CPU the first time it runs one of our tasks.
    thread_local bool pinned = false;
    if (!pinned) {
      pin_self(2 + workers_seen_.fetch_add(1, std::memory_order_relaxed) % 2);
      pinned = true;
    }
    const bool skip = k == warm_ + 1000 && sh_.cfg.inject == fault::drop;
    if (!skip) {
      r.start_ns = now_ns();
      r.runs.fetch_add(1, std::memory_order_relaxed);
      r.out = result_of(r.payload);
      if (k == warm_ + 1000 && sh_.cfg.inject == fault::corrupt) r.out ^= 1;
      if (r.phase == traced) r.end_ns = now_ns();
    }
    // Stamp before counting the task done: the generator's CPU clock is
    // only readable while the generator waits for done_.
    const std::uint64_t c = ran_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t per = sh_.win.per_window();
    if (c % per == 0) sh_.win.stamp(c / per, r.phase, clock_ns(gen_clock_));
    r.done.store(true, std::memory_order_release);
    done_.fetch_add(1, std::memory_order_release);
  }

  shared &sh_;
  serve_stats &st_;
  const std::uint64_t warm_;
  clockid_t gen_clock_{};
  std::int64_t base_ns_ = 0, period_ns_ = 1;
  std::uint64_t submitted_ = 0, refused_ = 0;
  std::atomic<std::uint64_t> ran_{0}, done_{0};
  std::atomic<unsigned> workers_seen_{0};
  std::uint64_t spawned_at_[4] = {0, 0, 0, 0};
  ssq::cached_thread_pool pool_;
  std::thread generator_;
};

} // namespace

std::unique_ptr<load> make_serve(shared &sh, serve_stats &st) {
  return std::make_unique<serve>(sh, st);
}

} // namespace hb
