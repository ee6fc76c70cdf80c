// Deterministic pseudo-random number generation used across the project.
//
// Every stochastic component (trace generation, SVM data sampling, RL
// exploration, simulator noise) draws from an explicitly seeded Rng so that
// experiments are exactly reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace mobirescue::util {

/// splitmix64: a full-avalanche stateless mix of `x`. The project's one
/// hash for derived seeds, shard keys and seeded fault draws.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seedable random source wrapping a 64-bit Mersenne Twister with convenience
/// samplers. Copyable; copies evolve independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Gaussian sample.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Poisson sample with the given mean (mean <= 0 yields 0).
  int Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Exponential inter-arrival sample with the given rate (events per unit).
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Samples an index proportionally to the non-negative weights.
  /// If all weights are zero, samples uniformly. Requires weights non-empty.
  std::size_t WeightedIndex(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Index(i)]);
    }
  }

  /// Derives an independent child generator; useful for giving each
  /// subsystem its own stream while keeping a single top-level seed.
  Rng Fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ULL); }

  std::mt19937_64& engine() { return engine_; }
  /// Const access for checkpointing (mt19937_64 streams its full state).
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mobirescue::util
