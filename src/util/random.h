#ifndef ODBGC_UTIL_RANDOM_H_
#define ODBGC_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odbgc {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. All randomness in the library flows through explicit Rng
/// instances so that every simulation is reproducible from a single seed,
/// which the paper's methodology (10 runs differing only in seed) depends on.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances constructed with the same seed
  /// produce identical streams.
  explicit Rng(uint64_t seed);

  /// Returns the next raw 64-bit value.
  uint64_t Next();

  /// Returns a uniformly distributed integer in [0, bound). `bound` must be
  /// greater than zero. Uses rejection sampling, so the distribution is
  /// exactly uniform.
  uint64_t UniformInt(uint64_t bound);

  /// Returns a uniformly distributed integer in [lo, hi] inclusive.
  /// Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Returns a uniformly distributed double in [0, 1).
  double UniformDouble();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Forks an independent generator whose stream is decorrelated from this
  /// one. Useful for giving subsystems their own streams so that adding a
  /// random draw in one subsystem does not perturb another.
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_RANDOM_H_
