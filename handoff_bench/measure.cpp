#include "measure.hpp"

#include <pthread.h>
#include <sched.h>

#include <cinttypes>
#include <cstdio>

#include "trace.hpp"

namespace hb {

cpu_ticks cpu_ticks::read() {
  cpu_ticks t;
  std::FILE *f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::uint64_t v[8] = {};
  if (std::fscanf(f,
                  "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) == 8) {
    for (std::uint64_t x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

// VmHWM, not getrusage's ru_maxrss: after fork+exec the latter starts from
// the parent's resident size, so when run.py starts the benchmark it
// reports Python's.
double peak_rss_mb() {
  std::FILE *f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

namespace {
// The CPUs the process may use, as it started (before any pinning).
const std::vector<int> &allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}
} // namespace

unsigned online_cpus() { return static_cast<unsigned>(allowed_cpus().size()); }

void pin_self(unsigned slot) {
  const std::vector<int> &cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

const char *sp_name(sp s) noexcept {
  switch (s) {
    case sp::roundtrip: return "roundtrip";
    case sp::put: return "put";
    case sp::take: return "take";
    case sp::xfer: return "xfer";
    case sp::send: return "send";
    case sp::recv: return "recv";
    case sp::select_take: return "select_take";
    case sp::execute: return "execute";
    case sp::task: return "task";
    case sp::count_: break;
  }
  return "?";
}

void tracer::write(std::FILE *f, const char *source) const {
  const std::uint64_t n = written_ < ring_.size() ? written_ : ring_.size();
  for (std::uint64_t i = written_ - n; i < written_; ++i) {
    const span &s = ring_[i % ring_.size()];
    std::fprintf(f,
                 "%s,%u,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRId64
                 ",%" PRId64 "\n",
                 source, thread_, sp_name(s.name), s.id, s.parent, s.op,
                 s.start_ns, s.end_ns);
  }
}

} // namespace hb
