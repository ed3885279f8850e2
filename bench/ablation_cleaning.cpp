// Ablation D: cancelled-node cleaning strategy (paper §3.3 Pragmatics).
//
// "If items are offered at a very high rate, but with a very low time-out
// patience, this 'abandonment' cleaning strategy can result in a long-term
// build-up of canceled nodes, exhausting memory supplies and degrading
// performance."
//
// Workload: producers hammer timed offers with microsecond patience while a
// single slow consumer takes occasionally. We compare the real
// deferred-splice strategy against the abandonment strawman on (a) peak
// linked-list length and (b) offer throughput.
#include <atomic>

#include "bench_common.hpp"
#include "core/transfer_queue.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

// One storm: offers/sec, peak and final linked-list length.
std::vector<double> run_storm(cleaning_policy cp, int producers,
                              std::uint64_t offers_per_thread) {
  transfer_queue<> q(sync::spin_policy::adaptive(), mem::pooled_hp_reclaimer{}, cp);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> peak{0};

  // A watcher samples the linked-list length (the buildup the paper warns
  // about).
  std::thread watcher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t len = q.unsafe_length();
      std::size_t p = peak.load(std::memory_order_relaxed);
      while (len > p &&
             !peak.compare_exchange_weak(p, len, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::function<void()>> bodies;
  for (int p = 0; p < producers; ++p) {
    bodies.push_back([&q, offers_per_thread] {
      for (std::uint64_t i = 0; i < offers_per_thread; ++i) {
        item_token t = item_codec<payload>::encode(static_cast<payload>(i + 1));
        if (q.xfer(t, true, wait_kind::timed,
                   deadline::in(std::chrono::microseconds(30))) == empty_token)
          item_codec<payload>::dispose(t);
      }
    });
  }
  double secs = harness::run_threads_timed(std::move(bodies));
  stop.store(true, std::memory_order_release);
  watcher.join();

  return {static_cast<double>(offers_per_thread) * producers / secs,
          static_cast<double>(peak.load()),
          static_cast<double>(q.unsafe_length())};
}

} // namespace

int main(int argc, char **argv) {
  auto cfg = parse_sweep(argc, argv, {});
  const int producers = static_cast<int>(cfg.opt.get_int("producers", 3));
  std::uint64_t per = static_cast<std::uint64_t>(
      cfg.opt.get_int("offers", cfg.opt.has("quick") ? 2000 : 10000));

  harness::table t(
      {"strategy", "offers/sec", "peak linked nodes", "final linked nodes"});
  auto row = [&](const char *name, cleaning_policy cp) {
    auto s = repeat(cfg, [&] { return run_storm(cp, producers, per); });
    t.add_row({name, {s[0], 0}, {s[1], 0}, {s[2], 0}});
  };
  row("deferred-splice (paper)", cleaning_policy::deferred_splice);
  row("abandonment (strawman)", cleaning_policy::abandon);
  emit(t, cfg,
       "Ablation D: cancelled-node cleaning under a low-patience offer storm");
  std::printf("expectation: abandonment shows unbounded node buildup; the "
              "paper's strategy stays O(1)\n");
  return 0;
}
