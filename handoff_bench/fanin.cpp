// fanin: closed loop, two producers put() into one queue, one consumer
// take()s. The library's default queue -- the unfair linked dual stack --
// with 64-bit values, which item_codec boxes, so every transfer pays core
// CAS contention, a node from the pool, a hazard retire and a box.
//
// Checked: the sum and xor of every value sent equal those received, and
// the counts match.
#include <cstdint>
#include <memory>
#include <thread>

#include "core/synchronous_queue.hpp"
#include "workload.hpp"

namespace hb {
namespace {

constexpr std::uint64_t pill = 0; // producers never send 0

class fanin final : public load {
 public:
  explicit fanin(shared &sh) : sh_(sh), warm_(sh.warmup_ops) {
    consumer_ = load_thread(1, [this] { consume(); });
    for (unsigned p = 0; p < 2; ++p)
      producers_[p] = load_thread(2 + p, [this, p] { produce(p); });
  }

  ~fanin() override { stop(); }

  void finish() override {
    stop();
    tally sent;
    for (const tally &t : sent_) sent.add(t);
    sh_.attempted += sent.n;
    if (sent.n != got_.n) {
      sh_.failed += sent.n > got_.n ? sent.n - got_.n : got_.n - sent.n;
    } else if (sent.sum != got_.sum || sent.x != got_.x) {
      sh_.failed += 1;
    }
  }

 private:
  struct tally {
    std::uint64_t n = 0, sum = 0, x = 0;
    void add(std::uint64_t v) noexcept {
      ++n;
      sum += v;
      x ^= v;
    }
    void add(const tally &t) noexcept {
      n += t.n;
      sum += t.sum;
      x ^= t.x;
    }
  };

  void stop() {
    if (!consumer_.joinable()) return;
    sh_.ctl.ph.store(stopping);
    for (auto &t : producers_) t.join();
    q_.put(pill); // the consumer is the only taker: this is its last item
    consumer_.join();
  }

  void produce(unsigned p) {
    thread_rec &rec = *sh_.rec[1 + p];
    ssq::xoshiro256 rng(stream_seed(sh_.cfg.seed, p));
    tally mine;
    for (std::uint64_t i = 0;; ++i) {
      const int ph = sh_.ctl.read();
      if (ph == stopping) break;
      std::uint64_t v = rng.next();
      if (v == pill) v = 1;
      const std::int64_t t0 = now_ns();
      {
        span_guard g(rec.tracing(ph), sp::put,
                     (std::uint64_t{p + 1} << 40) | i);
        q_.put(v);
      }
      const std::int64_t t1 = now_ns();
      mine.add(v);
      if (measured(ph)) rec.record(ph, t1 - t0);
    }
    sent_[p] = mine;
  }

  void consume() {
    thread_rec &rec = *sh_.rec[0];
    const std::uint64_t per = sh_.win.per_window();
    const std::uint64_t inject_at = warm_ + 1000;
    tally got;
    std::uint64_t ops[2] = {0, 0};
    for (std::uint64_t n = 0;;) {
      const int ph = sh_.ctl.read();
      if (n % per == 0) sh_.win.stamp(n / per, ph);
      std::uint64_t v;
      {
        span_guard g(rec.tracing(ph), sp::take, n);
        v = q_.take();
      }
      if (v == pill) break;
      ++n;
      if (n == inject_at && sh_.cfg.inject != fault::none) {
        if (sh_.cfg.inject == fault::drop) continue;
        v ^= 1;
      }
      got.add(v);
      if (n == warm_) sh_.ctl.warm_done();
      if (measured(ph)) ++ops[slot_of(ph)];
    }
    got_ = got;
    sh_.ops[0] = ops[0];
    sh_.ops[1] = ops[1];
  }

  shared &sh_;
  const std::uint64_t warm_;
  ssq::synchronous_queue<std::uint64_t> q_;
  tally sent_[2];
  tally got_;
  std::thread consumer_;
  std::thread producers_[2];
};

} // namespace

std::unique_ptr<load> make_fanin(shared &sh) {
  return std::make_unique<fanin>(sh);
}

} // namespace hb
