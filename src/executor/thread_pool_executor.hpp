// thread_pool_executor: the ThreadPoolExecutor analogue used by the paper's
// "real-world" benchmark (§4, Figure 6).
//
// Configured as a CachedThreadPool (the paper's setup): core size 0,
// effectively unbounded maximum, finite keep-alive. The executor exercises
// every capability the paper lists in §1:
//
//   * submit offers the task to an idle worker (offer -- succeeds only if a
//     consumer is already waiting), otherwise spawns a new worker;
//   * idle workers poll with a keep-alive patience and retire on timeout;
//   * shutdown interrupts idle workers.
//
// The handoff channel is a template parameter satisfying HandoffChannel, so
// the same executor runs over the Java 5 baseline or the new synchronous
// queues -- exactly the substitution Figure 6 measures.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "executor/blocking_queue.hpp"
#include "executor/task.hpp"
#include "support/config.hpp"
#include "support/time.hpp"
#include "sync/interrupt.hpp"

namespace ssq {

struct executor_config {
  std::size_t core_pool_size = 0;                    // cached pool default
  std::size_t max_pool_size = 1u << 20;              // effectively unbounded
  nanoseconds keep_alive = std::chrono::seconds(60); // idle worker patience
};

// Utilities shared by all instantiations (defined in thread_pool_executor.cpp).
namespace exec_detail {
void name_worker_thread(std::uint64_t pool_id, std::uint64_t worker_id) noexcept;
std::uint64_t next_pool_id() noexcept;
} // namespace exec_detail

template <typename Queue>
  requires HandoffChannel<Queue, unique_task>
class thread_pool_executor {
 public:
  explicit thread_pool_executor(executor_config cfg = {})
      : cfg_(cfg), pool_id_(exec_detail::next_pool_id()) {}

  ~thread_pool_executor() {
    shutdown();
    join();
  }

  thread_pool_executor(const thread_pool_executor &) = delete;
  thread_pool_executor &operator=(const thread_pool_executor &) = delete;

  // Run `f` on some worker. Returns false iff the executor is shut down.
  template <typename F>
  bool submit(F &&f) {
    return execute(unique_task(std::forward<F>(f)));
  }

  bool execute(unique_task t) {
    if (shutdown_.load(std::memory_order_acquire)) return false;
    // Fast path: hand to an already-waiting worker (one synchronization
    // episode -- this is where queue quality shows up in Figure 6).
    if (queue_.try_put_ref(t, deadline::expired())) {
      // Over a *buffered* channel (linked_transfer_queue) the handoff can
      // succeed with no worker alive; make sure someone will drain it
      // (JDK's post-enqueue recheck).
      if (live_.load(std::memory_order_acquire) == 0 &&
          cfg_.max_pool_size > 0)
        spawn(unique_task{});
      return true;
    }
    // No idle worker: grow the pool if allowed.
    if (live_.load(std::memory_order_acquire) <
        cfg_.max_pool_size) {
      spawn(std::move(t));
      return true;
    }
    // Saturated: block until a worker frees up (bounded retry so shutdown
    // is honored).
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) return false;
      if (queue_.try_put_ref(t, deadline::in(std::chrono::milliseconds(50))))
        return true;
      if (live_.load(std::memory_order_acquire) < cfg_.max_pool_size) {
        spawn(std::move(t));
        return true;
      }
    }
  }

  // Stop accepting work and wake idle workers. Running tasks complete.
  void shutdown() {
    shutdown_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &w : workers_)
      if (!w->finished.load(std::memory_order_acquire)) w->tok.interrupt();
  }

  // Wait for every worker thread to exit (call after shutdown()).
  void join() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &w : workers_)
      if (w->th.joinable()) w->th.join();
    workers_.clear();
  }

  // ------------------------------------------------------------ statistics
  std::size_t pool_size() const noexcept {
    return live_.load(std::memory_order_acquire);
  }
  std::size_t largest_pool_size() const noexcept {
    return largest_.load(std::memory_order_acquire);
  }
  // Tasks that returned normally / that threw. A worker bumps these after
  // the task body returns or unwinds, so a task's own side effects can be
  // seen before its count. The counts are final once shutdown() and join()
  // have returned.
  std::uint64_t completed_count() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }
  std::uint64_t task_exception_count() const noexcept {
    return exceptions_.load(std::memory_order_acquire);
  }
  std::uint64_t spawned_count() const noexcept {
    return spawned_.load(std::memory_order_acquire);
  }

  Queue &channel() noexcept { return queue_; }

 private:
  struct worker {
    std::thread th;
    sync::interrupt_token tok;
    std::atomic<bool> finished{false};
  };

  void spawn(unique_task first) {
    auto w = std::make_unique<worker>();
    worker *wp = w.get();
    std::size_t n = live_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::size_t big = largest_.load(std::memory_order_relaxed);
    while (n > big &&
           !largest_.compare_exchange_weak(big, n, std::memory_order_relaxed))
      ;
    spawned_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t wid = worker_seq_.fetch_add(1, std::memory_order_relaxed);
    wp->th = std::thread([this, wp, wid, t = std::move(first)]() mutable {
      exec_detail::name_worker_thread(pool_id_, wid);
      worker_main(wp, std::move(t));
    });
    std::lock_guard<std::mutex> lk(mu_);
    reap_locked();
    workers_.push_back(std::move(w));
  }

  void worker_main(worker *w, unique_task first) {
    if (first) run(std::move(first));
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) break;
      // Workers beyond the core size use the keep-alive patience and retire
      // on expiry; core workers wait indefinitely (JDK semantics).
      bool timed = live_.load(std::memory_order_acquire) > cfg_.core_pool_size;
      deadline dl =
          timed ? deadline::in(cfg_.keep_alive) : deadline::unbounded();
      auto t = queue_.poll(dl, &w->tok);
      if (t) {
        run(std::move(*t));
        continue;
      }
      if (shutdown_.load(std::memory_order_acquire) || w->tok.interrupted())
        break;
      // Keep-alive expiry: retire only while that keeps the pool at or
      // above core size. The CAS prevents several simultaneously expiring
      // workers from collectively dropping below it.
      std::size_t n = live_.load(std::memory_order_acquire);
      while (n > cfg_.core_pool_size) {
        if (live_.compare_exchange_weak(n, n - 1,
                                        std::memory_order_acq_rel)) {
          w->finished.store(true, std::memory_order_release);
          return;
        }
      }
      // At or below core: keep serving.
    }
    live_.fetch_sub(1, std::memory_order_acq_rel);
    w->finished.store(true, std::memory_order_release);
  }

  void run(unique_task t) {
    try {
      t();
      completed_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      // A throwing task must not kill its worker (the JDK respawns; we
      // swallow and count -- same observable pool behaviour, cheaper).
      exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Join finished workers so the bookkeeping vector stays small in
  // long-running pools. Caller holds mu_.
  void reap_locked() {
    for (auto it = workers_.begin(); it != workers_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire) &&
          (*it)->th.joinable()) {
        (*it)->th.join();
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
  }

  executor_config cfg_;
  const std::uint64_t pool_id_;
  Queue queue_;

  std::mutex mu_;
  std::vector<std::unique_ptr<worker>> workers_;

  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> largest_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> exceptions_{0};
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> worker_seq_{0};
  std::atomic<bool> shutdown_{false};
};

} // namespace ssq
