// Figure 6: CachedThreadPool benchmark -- ns/task for N submitter threads
// feeding a thread pool whose handoff channel is each of the paper's four
// contenders (Hanson cannot drive an executor: no timed poll).
//
// Paper result (§4): the new fair queue beats Java5-fair by 14x (SPARC) /
// 6x (Opteron); the new unfair queue beats Java5-unfair by ~3x.
#include <atomic>

#include "bench_common.hpp"
#include "executor/thread_pool_executor.hpp"

using namespace ssq;
using namespace ssq::bench;

namespace {

template <typename Channel>
harness::summary measure_executor(int submitters, const sweep_config &cfg) {
  return repeat(cfg, [&] {
    thread_pool_executor<Channel> ex(
        {0, 1u << 20, std::chrono::milliseconds(500)});
    std::atomic<std::uint64_t> done{0};
    const std::uint64_t total = cfg.ops;
    auto quotas = harness::split_quota(total, submitters);

    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < submitters; ++s) {
      std::uint64_t quota = quotas[static_cast<std::size_t>(s)];
      bodies.push_back([&ex, &done, quota] {
        for (std::uint64_t i = 0; i < quota; ++i)
          ex.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    double secs = harness::run_threads_timed(std::move(bodies));
    // Include drain time: a task is not "done" until it ran.
    auto t0 = steady_clock::now();
    while (done.load(std::memory_order_acquire) < total)
      std::this_thread::yield();
    secs += std::chrono::duration<double>(steady_clock::now() - t0).count();
    ex.shutdown();
    ex.join();
    return std::vector{secs * 1e9 / static_cast<double>(total)};
  })[0];
}

} // namespace

int main(int argc, char **argv) {
  // Executor tasks cost far more than bare handoffs (spawns, keep-alive
  // churn); a smaller default op count keeps the stock sweep to minutes.
  auto cfg = parse_sweep(argc, argv, {1, 2, 3, 4, 6, 8, 12, 16},
                         /*default_ops=*/1500);

  using ch_j5u = java5_sq<unique_task, false>;
  using ch_j5f = java5_sq<unique_task, true>;
  using ch_newu = synchronous_queue<unique_task, false>;
  using ch_newf = synchronous_queue<unique_task, true>;

  harness::table t({"threads", "SynchronousQueue", "SynchronousQueue(fair)",
                    "NewSynchQueue", "NewSynchQueue(fair)"});
  for (int n : cfg.levels)
    t.add_row({std::to_string(n), measure_executor<ch_j5u>(n, cfg),
               measure_executor<ch_j5f>(n, cfg),
               measure_executor<ch_newu>(n, cfg),
               measure_executor<ch_newf>(n, cfg)});
  emit(t, cfg, "Figure 6: CachedThreadPool, ns/task (N submitters)");
  return 0;
}
