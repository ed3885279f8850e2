// Small fast PRNGs for tests, workloads, the schedule fuzzer, the
// elimination arena's slot choice and select's start offset.
//
// <random> engines are too heavy for use inside contended loops
// (std::mt19937 carries 2.5 KB of state); xorshift-family generators give
// us a few ns per draw with per-thread state.
#pragma once

#include <cstdint>

namespace ssq {

// splitmix64: used to seed and to hash thread ids into uncorrelated streams.
inline std::uint64_t splitmix64(std::uint64_t &state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256**: the workhorse generator.
class xoshiro256 {
 public:
  explicit xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    for (auto &w : s_) w = splitmix64(seed);
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound) without modulo bias worth caring about here.
  std::uint64_t below(std::uint64_t bound) noexcept {
    return bound ? next() % bound : 0;
  }

  // Bernoulli with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) noexcept {
    return below(den) < num;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

} // namespace ssq
