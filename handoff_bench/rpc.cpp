// rpc: closed-loop request/reply between one client and one server over two
// segmented_synchronous_queue<uint32_t>. No contention, an inline payload
// (no box), one segment allocation per 64 cells; what decides latency is
// the spin -> park -> futex-wake path of each handoff.
//
// Checked: every reply equals reply_of(request).
#include <cstdint>
#include <memory>
#include <thread>

#include "core/synchronous_queue.hpp"
#include "workload.hpp"

namespace hb {
namespace {

constexpr std::uint32_t pill = 0xffffffffu; // the client never sends it

class rpc final : public load {
 public:
  explicit rpc(shared &sh) : sh_(sh), warm_(sh.warmup_ops) {
    server_ = load_thread(2, [this] { serve(); });
    client_ = load_thread(1, [this] { call(); });
  }

  ~rpc() override { stop(); }

  void finish() override {
    stop();
    sh_.attempted += calls_;
    sh_.failed += wrong_;
  }

 private:
  using queue_t = ssq::segmented_synchronous_queue<std::uint32_t>;

  void stop() {
    if (!client_.joinable()) return;
    sh_.ctl.ph.store(stopping);
    client_.join(); // its last request is the pill
    server_.join();
  }

  void call() {
    thread_rec &rec = *sh_.rec[0];
    const std::uint64_t per = sh_.win.per_window();
    ssq::xoshiro256 rng(stream_seed(sh_.cfg.seed, 0));
    std::uint64_t ops[2] = {0, 0}, wrong = 0, n = 0;
    for (;; ++n) {
      const int ph = sh_.ctl.read();
      if (n % per == 0) sh_.win.stamp(n / per, ph);
      if (ph == stopping) break;
      std::uint32_t x = static_cast<std::uint32_t>(rng.next());
      if (x == pill) x = 0;
      tracer *tr = rec.tracing(ph);
      const std::int64_t t0 = now_ns();
      std::uint32_t y;
      {
        span_guard rt(tr, sp::roundtrip, n);
        {
          span_guard g(tr, sp::put, n);
          req_.put(x);
        }
        span_guard g(tr, sp::take, n);
        y = rep_.take();
      }
      const std::int64_t t1 = now_ns();
      if (y != reply_of(x)) ++wrong;
      if (n + 1 == warm_) sh_.ctl.warm_done();
      if (measured(ph)) {
        rec.record(ph, t1 - t0);
        ++ops[slot_of(ph)];
      }
    }
    req_.put(pill);
    calls_ = n;
    wrong_ = wrong;
    sh_.ops[0] = ops[0];
    sh_.ops[1] = ops[1];
  }

  void serve() {
    thread_rec &rec = *sh_.rec[1];
    const std::uint64_t inject_at = warm_ + 1000;
    std::uint32_t last = 0;
    for (std::uint64_t k = 0;; ++k) {
      tracer *tr = rec.tracing(sh_.ctl.read());
      std::uint32_t x;
      {
        span_guard g(tr, sp::take, k);
        x = req_.take();
      }
      if (x == pill) break;
      std::uint32_t y = reply_of(x);
      if (k == inject_at && sh_.cfg.inject == fault::corrupt) y ^= 1;
      if (k == inject_at && sh_.cfg.inject == fault::drop) y = last;
      last = y;
      span_guard g(tr, sp::put, k);
      rep_.put(y);
    }
  }

  shared &sh_;
  const std::uint64_t warm_;
  queue_t req_, rep_;
  std::uint64_t calls_ = 0, wrong_ = 0;
  std::thread server_;
  std::thread client_;
};

} // namespace

std::unique_ptr<load> make_rpc(shared &sh) {
  return std::make_unique<rpc>(sh);
}

} // namespace hb
