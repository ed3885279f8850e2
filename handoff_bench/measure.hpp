// Measurement primitives shared by the workloads: clocks, a fixed-size
// latency histogram, the fixed-count window log that throughput and CPU
// per operation are taken from, and host probes.
//
// Everything here is allocated before a timed phase starts; nothing grows
// while the library is being measured.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <vector>

namespace hb {

inline std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// CLOCK_MONOTONIC is what std::chrono::steady_clock reads on Linux, so these
// stamps compare directly with the library's deadlines.
inline std::int64_t now_ns() noexcept { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

// Log-linear histogram of nanosecond values: exact below 128 ns, then 128
// sub-buckets per power of two (each at most 0.8% wide) up to ~2^40 ns.
// Quantiles interpolate inside the bucket by rank, so a percentile moves
// continuously with the data instead of snapping to bucket edges.
class histogram {
 public:
  static constexpr int sub_bits = 7;
  static constexpr int max_exp = 40;
  static constexpr std::size_t buckets = std::size_t(max_exp - sub_bits + 2)
                                         << sub_bits;

  void record(std::int64_t ns) noexcept {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++n_;
  }

  void merge(const histogram &o) noexcept {
    for (std::size_t i = 0; i < buckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  void clear() noexcept {
    counts_.fill(0);
    n_ = 0;
  }

  std::uint64_t count() const noexcept { return n_; }

  // q in [0, 1]; returns nanoseconds (0 when empty).
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0;
    const double target = q * static_cast<double>(n_);
    double cum = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= target) {
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(buckets - 1);
  }

  double quantile_us(double q) const noexcept { return quantile(q) / 1e3; }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < (1u << sub_bits)) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    if (e > max_exp) return buckets - 1;
    const std::uint64_t mant = (v >> (e - sub_bits)) - (1u << sub_bits);
    return (std::size_t(e - sub_bits + 1) << sub_bits) + mant;
  }
  static double lower(std::size_t i) noexcept {
    if (i < (1u << sub_bits)) return static_cast<double>(i);
    const int k = static_cast<int>(i >> sub_bits);
    const std::uint64_t mant = i & ((1u << sub_bits) - 1);
    return static_cast<double>(((1u << sub_bits) + mant) << (k - 1));
  }
  static double width(std::size_t i) noexcept {
    if (i < (1u << sub_bits)) return 1;
    return static_cast<double>(std::uint64_t{1} << ((i >> sub_bits) - 1));
  }

  std::array<std::uint64_t, buckets> counts_{};
  std::uint64_t n_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// p50 and p90 of each fixed-count window of one thread's latency samples.
// The reported percentiles are medians over windows. Windows are short (a
// few milliseconds, and at least 100 samples so each p90 has 10 beyond
// it): when the host deschedules a vCPU, only the windows that overlap the
// stall move, and the median over windows does not, where a whole-phase
// p90 would take in every stall of the run.
class window_quantiles {
 public:
  static constexpr std::size_t max_windows = 16384;

  explicit window_quantiles(std::size_t per_window) : buf_(per_window) {
    for (int s = 0; s < 2; ++s) {
      p50_[s].resize(max_windows);
      p90_[s].resize(max_windows);
    }
  }

  // `slot` is the measured phase; a window never spans two phases.
  void record(int slot, std::int64_t ns) {
    if (slot != slot_) {
      slot_ = slot;
      fill_ = 0; // drop the partial window
    }
    buf_[fill_++] = ns;
    if (fill_ < buf_.size()) return;
    fill_ = 0;
    if (n_[slot] == max_windows) return;
    p50_[slot][n_[slot]] = nth(buf_.size() / 2);
    p90_[slot][n_[slot]] = nth(buf_.size() * 9 / 10);
    ++n_[slot];
  }

  void clear() {
    fill_ = 0;
    slot_ = -1;
    n_[0] = n_[1] = 0;
  }

  std::vector<double> p50s(int slot) const {
    return head(p50_[slot], n_[slot]);
  }
  std::vector<double> p90s(int slot) const {
    return head(p90_[slot], n_[slot]);
  }

 private:
  double nth(std::size_t k) {
    std::nth_element(buf_.begin(),
                     buf_.begin() + static_cast<std::ptrdiff_t>(k),
                     buf_.end());
    return static_cast<double>(buf_[k]);
  }
  static std::vector<double> head(const std::vector<double> &v, std::size_t n) {
    return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n)};
  }

  std::vector<std::int64_t> buf_;
  std::size_t fill_ = 0;
  int slot_ = -1;
  std::size_t n_[2] = {0, 0};
  // Sized up front: nothing grows while timing.
  std::vector<double> p50_[2], p90_[2];
};

// Throughput and CPU per operation come from fixed-count windows: one
// thread stamps a row every `per_window` completed operations. A host stall
// lands in one or two windows and the median over windows ignores it, where
// a whole-phase mean would absorb it.
class window_log {
 public:
  struct row {
    std::int64_t t_ns = 0;
    std::int64_t cpu_ns = 0;      // process CPU
    std::int64_t excl_cpu_ns = 0; // CPU to leave out (serve's generator)
    int phase = -1;               // phase the row was stamped in; -1 = unset
  };

  window_log(std::uint64_t per_window, std::size_t capacity)
      : per_window_(per_window), rows_(capacity) {}

  std::uint64_t per_window() const noexcept { return per_window_; }

  // Row k closes window k (ops (k-1)*per_window .. k*per_window). Rows are
  // indexed, so two workers closing different windows never share a row.
  void stamp(std::uint64_t k, int phase,
             std::int64_t excl_cpu_ns = 0) noexcept {
    if (k >= rows_.size()) return;
    rows_[k] = row{now_ns(), process_cpu_ns(), excl_cpu_ns, phase};
  }

  void clear() noexcept { std::fill(rows_.begin(), rows_.end(), row{}); }

  struct summary {
    double ops_per_s = 0;   // median over windows
    double cpu_us_per_op = 0;
    std::size_t windows = 0;
    std::vector<double> rates; // per window, sorted
  };

  // Windows whose both ends were stamped in `phase`.
  summary in_phase(int phase) const {
    std::vector<double> rate, cpu;
    for (std::size_t k = 1; k < rows_.size(); ++k) {
      const row &a = rows_[k - 1], &b = rows_[k];
      if (a.phase != phase || b.phase != phase || b.t_ns <= a.t_ns) continue;
      const double n = static_cast<double>(per_window_);
      rate.push_back(n * 1e9 / static_cast<double>(b.t_ns - a.t_ns));
      cpu.push_back(static_cast<double>((b.cpu_ns - a.cpu_ns) -
                                        (b.excl_cpu_ns - a.excl_cpu_ns)) /
                    1e3 / n);
    }
    std::sort(rate.begin(), rate.end());
    return summary{median(rate), median(cpu), rate.size(), rate};
  }

 private:
  std::uint64_t per_window_;
  std::vector<row> rows_;
};

// ---------------------------------------------------------------- host

// Cumulative /proc/stat CPU ticks; steal share is taken over a run.
struct cpu_ticks {
  std::uint64_t steal = 0, total = 0;
  static cpu_ticks read();
};

double peak_rss_mb();
unsigned online_cpus(); // what `nproc` reports: CPUs this process may use

// Pins the calling thread to one CPU. Slot 0 is the main thread's; load
// threads take slots 1..3, so each owns a CPU and the guest scheduler cannot
// move two parties of a handoff onto one CPU mid-run. With fewer CPUs the
// slots wrap. The first call must come from the unpinned main thread.
void pin_self(unsigned slot);

} // namespace hb
