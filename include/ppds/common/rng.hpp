#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "ppds/common/error.hpp"

/// \file rng.hpp
/// Deterministic, high-quality pseudo-random number generation.
///
/// The library never uses global RNG state: every randomized component takes
/// a ppds::Rng&, which makes protocol runs reproducible in tests and benches
/// while allowing callers to seed from the OS for deployments.

namespace ppds {

/// SplitMix64 finalizer over a combined (seed, stream) input: adjacent
/// stream indices land in decorrelated 64-bit outputs. This is the single
/// definition behind every derived-stream determinism contract in the
/// library (DaemonSet's per-chunk seeds, the OMPE per-point disguise
/// streams): results depend only on (seed, stream), never on thread count.
inline std::uint64_t splitmix64(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
///
/// Satisfies UniformRandomBitGenerator so it can drive <random>
/// distributions. Not cryptographically secure: the crypto module layers a
/// hash-based PRG on top for anything security-relevant (see
/// ppds/crypto/prg.hpp); Rng is for experiment workloads, cover positions in
/// tests, and synthetic data.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-seeds the generator, expanding \p seed with SplitMix64.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Fills \p out with uniform bytes, consuming one 64-bit draw per 8 bytes
  /// (a per-byte operator() loop would discard 7/8 of every draw).
  void fill_bytes(std::span<std::uint8_t> out) {
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      const std::uint64_t word = (*this)();
      std::memcpy(out.data() + i, &word, 8);
    }
    if (i < out.size()) {
      const std::uint64_t word = (*this)();
      std::memcpy(out.data() + i, &word, out.size() - i);
    }
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    const double u =
        static_cast<double>((*this)() >> 11) * 0x1.0p-53;  // [0,1)
    return lo + (hi - lo) * u;
  }

  /// Uniform double in [lo, hi) excluding values with |x| < eps.
  /// Used for random polynomial coefficients that must not vanish.
  double uniform_nonzero(double lo, double hi, double eps = 1e-3) {
    for (;;) {
      const double v = uniform(lo, hi);
      // Branchless magnitude test: a sign-dependent two-sided compare
      // mispredicts on half of all draws, which made this the hottest
      // instruction in the OMPE cover sweep (millions of draws per query).
      if (std::fabs(v) >= eps) return v;
    }
  }

  /// Log-uniform positive value in [2^lo_exp, 2^hi_exp]; used for the
  /// sign-preserving amplifier ra of the paper.
  double log_uniform_positive(double lo_exp = -4.0, double hi_exp = 4.0) {
    return std::exp2(uniform(lo_exp, hi_exp));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    detail::require(lo <= hi, "uniform_u64: empty range");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return (*this)();  // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = (*this)();
    while (v >= limit) v = (*this)();
    return lo + v % span;
  }

  /// Standard normal via Marsaglia polar method.
  double normal(double mean = 0.0, double stddev = 1.0) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return mean + stddev * u * factor;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform(0.0, 1.0) < p; }

  /// Chooses \p count distinct indices from [0, n) in increasing order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count) {
    detail::require(count <= n, "sample_indices: count > n");
    // Floyd's algorithm, then sort.
    std::vector<std::size_t> chosen;
    chosen.reserve(count);
    std::vector<bool> used(n, false);
    for (std::size_t j = n - count; j < n; ++j) {
      const std::size_t t = uniform_u64(0, j);
      if (used[t]) {
        chosen.push_back(j);
        used[j] = true;
      } else {
        chosen.push_back(t);
        used[t] = true;
      }
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[uniform_u64(0, i)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace ppds
