#include "harness/runner.hpp"

#include <barrier>
#include <thread>

namespace ssq::harness {

double run_threads_timed(std::vector<std::function<void()>> bodies) {
  const int n = static_cast<int>(bodies.size());
  // The clock starts in the barrier's completion step, which runs before
  // any party is released. Reading it after this thread's arrive_and_wait()
  // returns would miss whatever the workers finish while this thread waits
  // to be rescheduled -- on a loaded host, sometimes the whole run.
  steady_clock::time_point t0;
  std::barrier gate(n + 1, [&t0]() noexcept { t0 = steady_clock::now(); });
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (auto &b : bodies) {
    threads.emplace_back([&gate, body = std::move(b)]() mutable {
      gate.arrive_and_wait();
      body();
    });
  }
  gate.arrive_and_wait();
  for (auto &t : threads) t.join();
  auto t1 = steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<std::uint64_t> split_quota(std::uint64_t total, int parts) {
  std::vector<std::uint64_t> q(static_cast<std::size_t>(parts),
                               total / static_cast<std::uint64_t>(parts));
  for (std::uint64_t i = 0; i < total % static_cast<std::uint64_t>(parts); ++i)
    ++q[static_cast<std::size_t>(i)];
  return q;
}

} // namespace ssq::harness
