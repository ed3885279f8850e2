// Tests for the synchronization substrate: futex, park_slot, spin policy,
// semaphore, monitor, fair lock, interruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"
#include "sync/fair_lock.hpp"
#include "sync/futex.hpp"
#include "sync/interrupt.hpp"
#include "sync/monitor.hpp"
#include "sync/park_slot.hpp"
#include "sync/semaphore.hpp"
#include "sync/spin_policy.hpp"

using namespace ssq;
using namespace ssq::sync;

// ---------------------------------------------------------------- futex

TEST(Futex, WaitReturnsWhenValueAlreadyChanged) {
  std::atomic<std::uint32_t> w{5};
  // expected=4 != current: must not block.
  EXPECT_EQ(futex_wait(&w, 4, deadline::unbounded()), futex_result::woken);
}

TEST(Futex, TimedWaitExpires) {
  std::atomic<std::uint32_t> w{0};
  auto t0 = steady_clock::now();
  auto r = futex_wait(&w, 0, deadline::in(std::chrono::milliseconds(30)));
  auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(r, futex_result::timeout);
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Futex, WakeReleasesWaiter) {
  std::atomic<std::uint32_t> w{0};
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    while (w.load() == 0) {
      futex_wait(&w, 0, deadline::unbounded());
    }
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  w.store(1);
  futex_wake_all(&w);
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(Futex, ExpiredDeadlineReturnsImmediately) {
  std::atomic<std::uint32_t> w{0};
  EXPECT_EQ(futex_wait(&w, 0, deadline::expired()), futex_result::timeout);
}

// ---------------------------------------------------------------- park_slot

TEST(ParkSlot, SignalBeforeWaitDoesNotHang) {
  park_slot s;
  s.prepare();
  s.signal();
  EXPECT_EQ(s.wait(deadline::in(std::chrono::seconds(5))),
            park_slot::wait_result::woken);
}

TEST(ParkSlot, TimedWaitExpires) {
  park_slot s;
  s.prepare();
  auto r = s.wait(deadline::in(std::chrono::milliseconds(20)));
  EXPECT_EQ(r, park_slot::wait_result::timeout);
}

TEST(ParkSlot, CrossThreadWake) {
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cond.store(true);
    s.signal();
  });
  // Guarded-wait idiom.
  for (;;) {
    if (cond.load()) break;
    s.prepare();
    if (cond.load()) break;
    s.wait(deadline::unbounded());
  }
  waker.join();
  EXPECT_TRUE(s.was_signalled());
}

TEST(ParkSlot, InterruptWakesParkedThread) {
  park_slot s;
  interrupt_token tok;
  std::atomic<bool> interrupted{false};
  std::thread t([&] {
    s.prepare();
    auto r = s.wait(deadline::unbounded(), &tok);
    interrupted.store(r == park_slot::wait_result::interrupted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tok.interrupt();
  t.join();
  EXPECT_TRUE(interrupted.load());
}

TEST(ParkSlot, SpinThenParkCompletesViaPredicate) {
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    cond.store(true);
    s.signal();
  });
  auto r = spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::adaptive(), deadline::unbounded());
  setter.join();
  EXPECT_EQ(r, park_slot::wait_result::woken);
}

TEST(ParkSlot, SpinThenParkTimesOut) {
  park_slot s;
  auto r = spin_then_park(
      s, [] { return false; }, [] { return true; }, spin_policy::adaptive(),
      deadline::in(std::chrono::milliseconds(20)));
  EXPECT_EQ(r, park_slot::wait_result::timeout);
}

TEST(ParkSlot, SpinOnlyPolicyNeverParks) {
  diag::reset_all();
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cond.store(true);
  });
  auto r = spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::spin_only(), deadline::unbounded());
  setter.join();
  EXPECT_EQ(r, park_slot::wait_result::woken);
  EXPECT_EQ(diag::read(diag::id::park), 0u);
  EXPECT_GT(diag::read(diag::id::spin_retry), 0u);
}

TEST(ParkSlot, ParkOnlyPolicyParksPromptly) {
  diag::reset_all();
  park_slot s;
  std::atomic<bool> cond{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    cond.store(true);
    s.signal();
  });
  spin_then_park(
      s, [&] { return cond.load(); }, [] { return true; },
      spin_policy::park_only(), deadline::unbounded());
  setter.join();
  EXPECT_GE(diag::read(diag::id::park), 1u);
}

TEST(ParkSlot, SpinThenParkAsksAtFrontOnceTheBackBudgetRunsOut) {
  // adaptive()'s multiprocessor budgets, spelled out so the test does not
  // depend on the host's CPU count.
  const spin_policy adaptive_mp{512, 32, 64};
  struct outcome {
    park_slot::wait_result r;
    int front_calls;
    std::uint64_t spins;
  };
  // `done` reads the slot's arming as the end of the wait, so every case
  // stops right where it would park, without depending on timing.
  auto run = [](spin_policy pol, bool front, int done_at) {
    park_slot s;
    int calls = 0, polls = 0;
    auto before = diag::snapshot::take();
    auto r = spin_then_park(
        s, [&] { return polls++ == done_at || s.is_armed(); },
        [&] {
          ++calls;
          return front;
        },
        pol, deadline::in(std::chrono::seconds(30)));
    auto spins = (diag::snapshot::take() - before)[diag::id::spin_retry];
    EXPECT_FALSE(s.is_armed());
    return outcome{r, calls, spins};
  };

  // Caught within the short spin: the front probe never runs.
  auto o = run(adaptive_mp, true, 3);
  EXPECT_EQ(o.r, park_slot::wait_result::woken);
  EXPECT_EQ(o.front_calls, 0);
  EXPECT_EQ(o.spins, 3u);

  // Not caught: one probe when the short budget runs out. A waiter behind
  // the front parks after it; the front waiter spins the long budget.
  o = run(adaptive_mp, false, -1);
  EXPECT_EQ(o.front_calls, 1);
  EXPECT_EQ(o.spins, 32u);
  o = run(adaptive_mp, true, -1);
  EXPECT_EQ(o.front_calls, 1);
  EXPECT_EQ(o.spins, 512u);

  // No short budget: the probe runs before the first spin, or a front
  // waiter would never spin at all.
  o = run(spin_policy{8, 0, 1}, true, -1);
  EXPECT_EQ(o.front_calls, 1);
  EXPECT_EQ(o.spins, 8u);
  o = run(spin_policy{8, 0, 1}, false, -1);
  EXPECT_EQ(o.front_calls, 1);
  EXPECT_EQ(o.spins, 0u);
}

// ---------------------------------------------------------------- policy

TEST(SpinPolicy, AdaptiveMatchesPaperOnUniprocessor) {
  auto pol = spin_policy::adaptive();
  if (std::thread::hardware_concurrency() <= 1) {
    EXPECT_EQ(pol.front_spins, 0) << "busy-wait is useless on a uniprocessor";
  } else {
    EXPECT_GT(pol.front_spins, 0);
    EXPECT_GT(pol.front_spins, pol.back_spins)
        << "front-of-line waiters spin longer";
  }
}

TEST(SpinPolicy, AdaptiveReadsTheCpuCountOnce) {
  // Reading the CPU count costs microseconds (sysfs on glibc), so 10^5
  // calls that each read it take ~0.4 s; cached, they take well under a
  // millisecond. The bound leaves room for sanitizer builds and a
  // preempted attempt.
  using clock = std::chrono::steady_clock;
  double best_s = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    int spins = 0;
    const auto t0 = clock::now();
    for (int i = 0; i < 100000; ++i) spins += spin_policy::adaptive().front_spins;
    const std::chrono::duration<double> dt = clock::now() - t0;
    EXPECT_EQ(spins, 100000 * spin_policy::adaptive().front_spins);
    best_s = std::min(best_s, dt.count());
  }
  EXPECT_LT(best_s, 0.05);
}

TEST(SpinPolicy, SpinOnlyIsUnbounded) {
  EXPECT_TRUE(spin_policy::spin_only().unbounded_spin());
  EXPECT_FALSE(spin_policy::park_only().unbounded_spin());
}

// ---------------------------------------------------------------- semaphore

TEST(Semaphore, InitialPermitsAreAcquirable) {
  counting_semaphore s(2);
  EXPECT_TRUE(s.try_acquire());
  EXPECT_TRUE(s.try_acquire());
  EXPECT_FALSE(s.try_acquire());
}

TEST(Semaphore, ReleaseUnblocksAcquire) {
  counting_semaphore s(0);
  std::atomic<bool> got{false};
  std::thread t([&] {
    s.acquire();
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  s.release();
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(Semaphore, TimedAcquireExpires) {
  counting_semaphore s(0);
  EXPECT_FALSE(s.try_acquire_for(std::chrono::milliseconds(20)));
}

TEST(Semaphore, TimedAcquireSucceedsWhenReleased) {
  counting_semaphore s(0);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s.release();
  });
  EXPECT_TRUE(s.try_acquire_for(std::chrono::seconds(5)));
  t.join();
}

TEST(Semaphore, CountingStress) {
  counting_semaphore s(0);
  const int n = 4, per = 5000;
  std::atomic<int> acquired{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < per; ++j) s.release();
    });
  for (int i = 0; i < n; ++i)
    ts.emplace_back([&] {
      for (int j = 0; j < per; ++j) {
        s.acquire();
        acquired.fetch_add(1);
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(acquired.load(), n * per);
  EXPECT_EQ(s.value(), 0u);
}

// ---------------------------------------------------------------- monitor

TEST(Monitor, WaitNotifyAll) {
  monitor m;
  bool flag = false;
  std::thread t([&] {
    m.synchronized([&](monitor::scope &s) {
      while (!flag) s.wait();
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  m.synchronized([&](monitor::scope &s) {
    flag = true;
    s.notify_all();
  });
  t.join();
}

TEST(Monitor, TimedWaitExpires) {
  monitor m;
  bool ok = m.synchronized([&](monitor::scope &s) {
    return s.wait_until(deadline::in(std::chrono::milliseconds(20)));
  });
  EXPECT_FALSE(ok);
}

TEST(Monitor, SynchronizedReturnsValue) {
  monitor m;
  int v = m.synchronized([&](monitor::scope &) { return 41 + 1; });
  EXPECT_EQ(v, 42);
}

// ---------------------------------------------------------------- fair lock

TEST(FairLock, BasicMutualExclusion) {
  fair_lock lk;
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        std::lock_guard<fair_lock> g(lk);
        ++counter; // data race iff mutual exclusion broken (run under TSan)
      }
    });
  for (auto &t : ts) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(FairLock, TryLockDoesNotBarge) {
  fair_lock lk;
  lk.lock();
  EXPECT_FALSE(lk.try_lock());
  lk.unlock();
  EXPECT_TRUE(lk.try_lock());
  lk.unlock();
}

TEST(FairLock, QueueLengthObserver) {
  fair_lock lk;
  EXPECT_EQ(lk.queue_length(), 0u);
  EXPECT_FALSE(lk.is_locked());
  lk.lock();
  EXPECT_EQ(lk.queue_length(), 1u);
  EXPECT_TRUE(lk.is_locked());
  lk.unlock();
  EXPECT_FALSE(lk.is_locked());
}

TEST(FairLock, ServiceOrderMatchesArrivalOrder) {
  // Deterministic FIFO check: contenders take tickets one at a time (the
  // next thread is released only after the previous holds a ticket, which
  // we detect via queue_length), then record service order.
  fair_lock lk;
  const int n = 8;
  std::vector<int> service;
  std::mutex sm;

  lk.lock();
  std::vector<std::thread> ts;
  for (int i = 0; i < n; ++i) {
    std::uint32_t before = lk.queue_length();
    ts.emplace_back([&, i] {
      lk.lock();
      {
        std::lock_guard<std::mutex> g(sm);
        service.push_back(i);
      }
      lk.unlock();
    });
    while (lk.queue_length() == before) std::this_thread::yield();
  }
  lk.unlock();
  for (auto &t : ts) t.join();

  ASSERT_EQ(service.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(service[static_cast<std::size_t>(i)], i)
        << "fair lock served out of arrival order";
}

// ---------------------------------------------------------------- interrupt

TEST(Interrupt, FlagStaysSetOnceInterrupted) {
  interrupt_token tok;
  EXPECT_FALSE(tok.interrupted());
  tok.interrupt();
  EXPECT_TRUE(tok.interrupted());
  tok.interrupt();
  EXPECT_TRUE(tok.interrupted());
}

TEST(Interrupt, DeliveryLatencyIsBounded) {
  park_slot s;
  interrupt_token tok;
  std::atomic<double> latency_ms{-1};
  std::thread t([&] {
    s.prepare();
    auto t0 = steady_clock::now();
    s.wait(deadline::unbounded(), &tok);
    latency_ms.store(
        std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
            .count());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto t0 = steady_clock::now();
  tok.interrupt();
  t.join();
  auto total =
      std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
          .count();
  EXPECT_LT(total, 500.0) << "interrupt must be observed within quanta";
}
