// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library takes an explicit Rng so that all
// experiments are exactly reproducible from a single seed. The generator is
// xoshiro256++ seeded through SplitMix64, which is fast, has a 256-bit state,
// and passes BigCrush; we deliberately avoid std::mt19937 so that results are
// identical across standard-library implementations.

#ifndef HARVEST_SRC_UTIL_RNG_H_
#define HARVEST_SRC_UTIL_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace harvest {

// Deterministic FNV-1a string hash (std::hash is not portable across
// standard libraries, and seeds must be stable everywhere).
inline uint64_t StableHash(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// SplitMix64 step; used to seed the main generator and as a cheap hash.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Independent 64-bit stream per (seed, tag): adding or disabling one
// consumer never shifts another's randomness. The driver derives every
// per-stage stream this way; the storage co-simulation uses it for its
// paired writer/policy streams.
inline uint64_t DerivedStreamSeed(uint64_t seed, std::string_view tag) {
  uint64_t state = seed ^ StableHash(tag);
  return SplitMix64(state);
}

// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  // Re-seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  void Seed(uint64_t seed) {
    uint64_t s = seed;
    for (auto& word : state_) {
      word = SplitMix64(s);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection.
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller (no cached spare: keeps state replayable).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) {
      u1 = std::numeric_limits<double>::min();
    }
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return mean + stddev * z;
  }

  double LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

  // Exponential with the given rate (events per unit time).
  double Exponential(double rate) {
    double u = NextDouble();
    if (u <= 0.0) {
      u = std::numeric_limits<double>::min();
    }
    return -std::log(u) / rate;
  }

  // Poisson-distributed count. Knuth for small means, normal approx for large.
  int64_t Poisson(double mean) {
    if (mean <= 0.0) {
      return 0;
    }
    if (mean > 64.0) {
      double v = std::round(Normal(mean, std::sqrt(mean)));
      return v < 0.0 ? 0 : static_cast<int64_t>(v);
    }
    const double limit = std::exp(-mean);
    double product = NextDouble();
    int64_t count = 0;
    while (product > limit) {
      product *= NextDouble();
      ++count;
    }
    return count;
  }

  // Samples an index in [0, weights.size()) with probability proportional to
  // weights[i]. Zero or negative weights are never selected. Returns -1 when
  // all weights are non-positive.
  int WeightedIndex(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) {
      if (w > 0.0) {
        total += w;
      }
    }
    if (total <= 0.0) {
      return -1;
    }
    double point = NextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] <= 0.0) {
        continue;
      }
      point -= weights[i];
      if (point <= 0.0) {
        return static_cast<int>(i);
      }
    }
    return static_cast<int>(weights.size()) - 1;
  }

  // Derives an independent child generator; useful to give each simulated
  // entity its own stream without coupling consumption order.
  Rng Fork() { return Rng(Next() ^ 0x9e3779b97f4a7c15ULL); }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_RNG_H_
