// Deterministic, splittable random number generation.
//
// The auto-tuner must be reproducible: the same (seed, workload, config)
// triple always yields the same simulated measurement, and the same tuning
// session always explores the same trajectory. We therefore avoid
// std::random_device / global state entirely and thread explicit Rng values
// through every component. Rng::split() derives an independent child stream,
// which lets parallel evaluations stay deterministic regardless of thread
// scheduling.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace jat {

/// xoshiro256** PRNG seeded via SplitMix64. Small, fast, and good enough
/// statistical quality for stochastic search and noise injection.
class Rng {
 public:
  /// Seeds the four words of state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x6a61745f32303135ULL);  // "jat_2015"

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 returns 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in the closed interval [lo, hi].
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (no cached spare; simple and stateless).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *median* of the distribution is `median` and
  /// the multiplicative spread is exp(sigma).
  double lognormal_median(double median, double sigma);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Exponentially distributed value with the given mean (mean > 0).
  double exponential(double mean);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// All-zero / empty weights fall back to uniform / 0.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child stream. The child is a pure function of
  /// the parent state and the salt, and advances the parent exactly once.
  Rng split(std::uint64_t salt = 0x9e3779b97f4a7c15ULL);

  /// Derives a child keyed by a string (e.g. a flag or workload name), so
  /// per-entity streams do not depend on iteration order.
  Rng split(std::string_view key);

 private:
  std::uint64_t s_[4];
};

/// FNV-1a 64-bit hash; used to key per-entity RNG streams and to fingerprint
/// configurations. Streams: fnv1a64(b, fnv1a64(a)) hashes the concatenation
/// a + b.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Mixes two 64-bit values into one (SplitMix64 finalizer over the sum).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

}  // namespace jat
