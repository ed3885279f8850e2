#include "support/diagnostics.hpp"

#include <mutex>

namespace ssq::diag {

namespace {

// Every live thread's shard, plus the total of the threads that have
// exited. Allocated once and never destroyed, so bumps made during static
// teardown still have somewhere to land.
struct registry {
  std::mutex mu;
  detail::shard *live = nullptr; // guarded by mu
  detail::shard exited;          // late bumps add here without mu
};

registry &reg() noexcept {
  static registry *r = new registry;
  return *r;
}

// Calls f on the exited total and on every live shard. Caller holds r.mu.
template <typename F>
void each_shard(registry &r, F f) {
  f(r.exited);
  for (detail::shard *s = r.live; s; s = s->next) f(*s);
}

// Thread exit: fold this thread's counts into the exited total and point
// its late bumps there. The same tl_slot/tl_owner split as node_pool.cpp:
// detail::tl_shard is trivially destructible, so it stays readable after
// this destructor has run.
struct tl_owner {
  ~tl_owner() {
    detail::shard *mine = detail::tl_shard;
    registry &r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    for (unsigned i = 0; i < id_count; ++i) {
      SSQ_MO_JUSTIFIED("relaxed: measurement counter; the registry mutex "
                       "orders the fold against readers");
      r.exited.v[i].fetch_add(mine->v[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    }
    for (detail::shard **p = &r.live; *p; p = &(*p)->next) {
      if (*p == mine) {
        *p = mine->next;
        break;
      }
    }
    detail::tl_shard = &r.exited;
    delete mine;
  }
  void touch() noexcept {}
};
thread_local tl_owner g_owner;

} // namespace

detail::shard *detail::attach() noexcept {
  g_owner.touch(); // force construction so the fold destructor registers
  auto *s = new detail::shard;
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  s->next = r.live;
  r.live = s;
  tl_shard = s;
  return s;
}

std::uint64_t read(id which) noexcept { return snapshot::take()[which]; }

void reset_all() noexcept {
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  each_shard(r, [](detail::shard &s) {
    for (auto &c : s.v) {
      SSQ_MO_JUSTIFIED("relaxed: measurement counter; a racing bump lands "
                       "either before or after the zero");
      c.store(0, std::memory_order_relaxed);
    }
  });
}

snapshot snapshot::take() noexcept {
  snapshot out;
  registry &r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  each_shard(r, [&out](const detail::shard &s) {
    for (unsigned i = 0; i < id_count; ++i) {
      SSQ_MO_JUSTIFIED("relaxed: measurement counter, read as a sum of "
                       "shards");
      out.v[i] += s.v[i].load(std::memory_order_relaxed);
    }
  });
  return out;
}

snapshot snapshot::operator-(const snapshot &rhs) const noexcept {
  snapshot s;
  for (unsigned i = 0; i < id_count; ++i) s.v[i] = v[i] - rhs.v[i];
  return s;
}

} // namespace ssq::diag
