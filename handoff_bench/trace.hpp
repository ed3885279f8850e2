// Spans for the traced run. A span is taken around each call the benchmark
// makes into a layer's public function: name, start, end, the span that
// caused it, and the operation it belongs to. Spans stay in a fixed ring per
// thread and are written out when the run ends; durations and self times
// are folded into histograms as spans close.
//
// Self time is a span's duration minus the time its child spans on the same
// thread cover. Nothing inside the library is traced, so a call's self time
// is the whole cost of that layer and everything below it; the ladder
// (ladder.cpp) splits that cost by layer.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "measure.hpp"

namespace hb {

enum class sp : std::uint8_t {
  roundtrip,
  put,
  take,
  xfer,
  send,
  recv,
  select_take,
  execute,
  task,
  count_
};
inline constexpr std::size_t sp_count = static_cast<std::size_t>(sp::count_);
const char *sp_name(sp s) noexcept;

struct span {
  std::int64_t start_ns = 0, end_ns = 0;
  std::uint64_t id = 0, parent = 0, op = 0;
  sp name = sp::roundtrip;
};

class tracer {
 public:
  struct totals {
    histogram dur, self;
    std::int64_t self_ns = 0;
  };

  explicit tracer(unsigned thread_idx, std::size_t ring_cap = 8192)
      : thread_(thread_idx), ring_(ring_cap) {}

  tracer(const tracer &) = delete;
  tracer &operator=(const tracer &) = delete;

  // `parent` 0 means the innermost span open on this thread.
  std::uint64_t begin(sp name, std::uint64_t op, std::uint64_t parent = 0) {
    open_span &o = stack_[depth_++];
    o.id = (std::uint64_t{thread_} << 48) | ++seq_;
    o.parent = parent ? parent : (depth_ > 1 ? stack_[depth_ - 2].id : 0);
    o.op = op;
    o.name = name;
    o.child_ns = 0;
    o.start = now_ns();
    return o.id;
  }

  void end() { close(now_ns()); }

  std::uint64_t open_id() const noexcept {
    return depth_ ? stack_[depth_ - 1].id : 0;
  }

  // A span measured elsewhere (a task body, timed by the worker that ran
  // it); it has no children.
  void add(const span &s) {
    fold(s, 0);
  }

  const totals &of(sp s) const { return totals_[static_cast<std::size_t>(s)]; }

  // The spans still in the ring, oldest first, as CSV rows.
  void write(std::FILE *f, const char *source) const;

 private:
  struct open_span {
    std::uint64_t id, parent, op;
    std::int64_t start, child_ns;
    sp name;
  };

  void close(std::int64_t t) {
    const open_span &o = stack_[--depth_];
    if (depth_ > 0) stack_[depth_ - 1].child_ns += t - o.start;
    fold(span{o.start, t, o.id, o.parent, o.op, o.name}, o.child_ns);
  }

  void fold(const span &s, std::int64_t child_ns) {
    totals &a = totals_[static_cast<std::size_t>(s.name)];
    const std::int64_t d = s.end_ns - s.start_ns;
    a.dur.record(d);
    a.self.record(d - child_ns);
    a.self_ns += d - child_ns;
    ring_[written_++ % ring_.size()] = s;
  }

  unsigned thread_;
  std::uint64_t seq_ = 0;
  std::array<open_span, 4> stack_{};
  int depth_ = 0;
  std::array<totals, sp_count> totals_{};
  std::vector<span> ring_;
  std::uint64_t written_ = 0;
};

// Opens a span on `t` for the enclosing scope; a null tracer records
// nothing, which is how untraced phases run the same code.
class span_guard {
 public:
  span_guard(tracer *t, sp name, std::uint64_t op) : t_(t) {
    if (t_) t_->begin(name, op);
  }
  ~span_guard() {
    if (t_) t_->end();
  }
  span_guard(const span_guard &) = delete;
  span_guard &operator=(const span_guard &) = delete;

 private:
  tracer *t_;
};

} // namespace hb
