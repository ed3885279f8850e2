#include "ladder.hpp"

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/channel.hpp"
#include "core/segment_queue.hpp"
#include "core/select.hpp"
#include "core/synchronous_queue.hpp"
#include "sync/futex.hpp"
#include "sync/park_slot.hpp"
#include "sync/spin_policy.hpp"
#include "workload.hpp"

namespace hb {
namespace {

constexpr std::uint32_t pill = 0xffffffffu;

std::uint32_t seq_of(std::uint64_t i) {
  return static_cast<std::uint32_t>(i + 1);
}

// Request i is published as seq i+1 next to its value.
struct alignas(64) mailbox {
  std::atomic<std::uint32_t> seq{0};
  std::uint32_t val = 0;
  ssq::sync::park_slot slot[2]; // used by the park_slot rungs only

  void publish(std::uint32_t v, std::uint64_t i) {
    val = v;
    seq.store(seq_of(i), std::memory_order_release);
  }
  bool has(std::uint64_t i) const {
    return seq.load(std::memory_order_acquire) == seq_of(i);
  }
};

struct futex_pair {
  mailbox req, rep;

  static void send(mailbox &m, std::uint32_t v, std::uint64_t i) {
    m.publish(v, i);
    ssq::sync::futex_wake_one(&m.seq);
  }
  static std::uint32_t await(mailbox &m, std::uint64_t i) {
    for (std::uint32_t s;
         (s = m.seq.load(std::memory_order_acquire)) != seq_of(i);)
      ssq::sync::futex_wait(&m.seq, s, ssq::deadline::unbounded());
    return m.val;
  }
  std::uint32_t call(tracer *, std::uint32_t x, std::uint64_t i) {
    send(req, x, i);
    return await(rep, i);
  }
  void stop(std::uint64_t i) { send(req, pill, i); }
  bool serve(tracer *, std::uint64_t k) {
    const std::uint32_t x = await(req, k);
    if (x == pill) return false;
    send(rep, reply_of(x), k);
    return true;
  }
};

// Each side waits on slot[i & 1] and re-arms the other one once its wait
// returns: by then the signal that slot last received has completed, so a
// late signal can never land in a fresh episode.
struct slot_pair {
  explicit slot_pair(bool front_budget) : front(front_budget) {}
  mailbox req, rep;
  const bool front;
  const ssq::sync::spin_policy pol = ssq::sync::spin_policy::adaptive();

  static void send(mailbox &m, std::uint32_t v, std::uint64_t i) {
    m.publish(v, i);
    m.slot[i & 1].signal();
  }
  std::uint32_t await(mailbox &m, std::uint64_t i) const {
    ssq::sync::spin_then_park(
        m.slot[i & 1], [&] { return m.has(i); }, [this] { return front; }, pol,
        ssq::deadline::unbounded());
    m.slot[(i + 1) & 1].reset();
    return m.val;
  }
  std::uint32_t call(tracer *, std::uint32_t x, std::uint64_t i) {
    send(req, x, i);
    return await(rep, i);
  }
  void stop(std::uint64_t i) { send(req, pill, i); }
  bool serve(tracer *, std::uint64_t k) {
    const std::uint32_t x = await(req, k);
    if (x == pill) return false;
    send(rep, reply_of(x), k);
    return true;
  }
};

struct xfer_pair {
  ssq::segment_queue<> req, rep;

  static ssq::item_token token(std::uint32_t v) {
    return (ssq::item_token{v} << 1) | 1;
  }
  static std::uint32_t value(ssq::item_token t) {
    return static_cast<std::uint32_t>(t >> 1);
  }
  static void put(ssq::segment_queue<> &q, tracer *t, std::uint32_t v,
                  std::uint64_t i) {
    span_guard g(t, sp::xfer, i);
    q.xfer(token(v), true, ssq::wait_kind::sync);
  }
  static std::uint32_t take(ssq::segment_queue<> &q, tracer *t,
                            std::uint64_t i) {
    span_guard g(t, sp::xfer, i);
    return value(q.xfer(ssq::empty_token, false, ssq::wait_kind::sync));
  }
  std::uint32_t call(tracer *t, std::uint32_t x, std::uint64_t i) {
    put(req, t, x, i);
    return take(rep, t, i);
  }
  void stop(std::uint64_t i) { put(req, nullptr, pill, i); }
  bool serve(tracer *t, std::uint64_t k) {
    const std::uint32_t x = take(req, t, k);
    if (x == pill) return false;
    put(rep, t, reply_of(x), k);
    return true;
  }
};

struct facade_pair {
  ssq::segmented_synchronous_queue<std::uint32_t> req, rep;

  template <typename Q>
  static void put(Q &q, tracer *t, std::uint32_t v, std::uint64_t i) {
    span_guard g(t, sp::put, i);
    q.put(v);
  }
  template <typename Q>
  static std::uint32_t take(Q &q, tracer *t, std::uint64_t i) {
    span_guard g(t, sp::take, i);
    return q.take();
  }
  std::uint32_t call(tracer *t, std::uint32_t x, std::uint64_t i) {
    put(req, t, x, i);
    return take(rep, t, i);
  }
  void stop(std::uint64_t i) { put(req, nullptr, pill, i); }
  bool serve(tracer *t, std::uint64_t k) {
    const std::uint32_t x = take(req, t, k);
    if (x == pill) return false;
    put(rep, t, reply_of(x), k);
    return true;
  }
};

// Channels never close here, so a send that fails or a receive that comes
// back empty is a library failure; `lost` counts them.
struct channel_pair {
  ssq::segmented_channel<std::uint32_t> req, rep;
  std::atomic<std::uint64_t> lost{0};

  void send(ssq::segmented_channel<std::uint32_t> &c, tracer *t,
            std::uint32_t v, std::uint64_t i) {
    span_guard g(t, sp::send, i);
    if (!c.send(v)) lost.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint32_t recv(ssq::segmented_channel<std::uint32_t> &c, tracer *t,
                     std::uint64_t i) {
    span_guard g(t, sp::recv, i);
    auto v = c.recv();
    if (!v) lost.fetch_add(1, std::memory_order_relaxed);
    return v.value_or(pill);
  }
  std::uint32_t call(tracer *t, std::uint32_t x, std::uint64_t i) {
    send(req, t, x, i);
    return recv(rep, t, i);
  }
  void stop(std::uint64_t i) { send(req, nullptr, pill, i); }
  bool serve(tracer *t, std::uint64_t k) {
    const std::uint32_t x = recv(req, t, k);
    if (x == pill) return false;
    send(rep, t, reply_of(x), k);
    return true;
  }
};

struct select_pair : channel_pair {
  ssq::segmented_channel<std::uint32_t> ctl; // never sent to

  bool serve(tracer *t, std::uint64_t k) {
    std::uint32_t x = pill;
    {
      span_guard g(t, sp::select_take, k);
      auto r = ssq::select_take<std::uint32_t>(ssq::deadline::unbounded(),
                                               req.queue(), ctl.queue());
      if (r && r->first == 0)
        x = r->second;
      else
        lost.fetch_add(1, std::memory_order_relaxed);
    }
    if (x == pill) return false;
    send(rep, t, reply_of(x), k);
    return true;
  }
};

template <typename Pair>
void run_rung(rung &r, Pair &p, std::uint64_t seed, std::uint64_t n) {
  r.client = std::make_unique<tracer>(0);
  r.server = std::make_unique<tracer>(1);
  std::atomic<bool> on{false};
  std::thread server = load_thread(2, [&] {
    for (std::uint64_t k = 0;; ++k) {
      tracer *t = on.load(std::memory_order_relaxed) ? r.server.get() : nullptr;
      if (!p.serve(t, k)) break;
    }
  });
  std::thread client = load_thread(1, [&] {
    ssq::xoshiro256 rng(stream_seed(seed, 7));
    const std::uint64_t warm = n / 10;
    ssq::diag::snapshot d0;
    for (std::uint64_t i = 0; i < warm + n; ++i) {
      if (i == warm) {
        d0 = ssq::diag::snapshot::take();
        on.store(true, std::memory_order_relaxed);
      }
      std::uint32_t x = static_cast<std::uint32_t>(rng.next());
      if (x == pill) x = 0;
      tracer *t = i >= warm ? r.client.get() : nullptr;
      const std::int64_t t0 = now_ns();
      std::uint32_t y;
      {
        span_guard g(t, sp::roundtrip, i);
        y = p.call(t, x, i);
      }
      const std::int64_t t1 = now_ns();
      if (y != reply_of(x)) ++r.failed;
      if (i >= warm) r.rtt.record(t1 - t0);
    }
    r.delta = ssq::diag::snapshot::take() - d0;
    r.n = n;
    p.stop(warm + n);
  });
  client.join();
  server.join();
}

template <typename Pair, typename... Args>
void add_rung(std::vector<std::unique_ptr<rung>> &out, const char *name,
              const char *metric, const char *below, std::uint64_t seed,
              std::uint64_t n, Args &&...args) {
  auto r = std::make_unique<rung>();
  r->name = name;
  r->metric = metric;
  r->below = below;
  auto p = std::make_unique<Pair>(std::forward<Args>(args)...);
  run_rung(*r, *p, seed, n);
  if constexpr (requires { p->lost; })
    r->failed += p->lost.load(std::memory_order_relaxed);
  out.push_back(std::move(r));
}

} // namespace

std::vector<std::unique_ptr<rung>> run_ladder(std::uint64_t seed,
                                              std::uint64_t n) {
  std::vector<std::unique_ptr<rung>> out;
  add_rung<futex_pair>(out, "futex", "sync.futex_rtt_us", "", seed, n);
  add_rung<slot_pair>(out, "park_slot", "sync.park_slot_rtt_us", "futex", seed,
                      n, true);
  add_rung<slot_pair>(out, "park_back", "sync.park_slot_back_rtt_us",
                      "park_slot", seed, n, false);
  add_rung<xfer_pair>(out, "xfer", "core.xfer_rtt_us", "park_slot", seed, n);
  add_rung<facade_pair>(out, "facade", "core.facade_rtt_us", "xfer", seed, n);
  add_rung<channel_pair>(out, "channel", "core.channel_rtt_us", "facade", seed,
                         n);
  add_rung<select_pair>(out, "select", "core.select_rtt_us", "channel", seed,
                        n);
  return out;
}

} // namespace hb
