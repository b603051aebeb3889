// Seeded random number generation.
//
// Every stochastic component of the library (execution-time models, the
// UUniFast task-set generator) draws from an explicitly seeded Rng so that
// simulations, tests, and benches are reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>

namespace lpfps {

/// A thin, explicitly seeded wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Reseeds in place.  Bit-identical to constructing a fresh
  /// `Rng(seed)`: `mt19937_64::seed` performs the same state
  /// initialization as the seeded constructor, and every distribution
  /// method constructs its std:: distribution per call, so no sampling
  /// state survives a reseed.  The fleet engine relies on this to rebind
  /// simulation lanes without reallocating.
  void reseed(std::uint64_t seed) { engine_.seed(seed); }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal (Gaussian) deviate with the given mean and standard deviation.
  /// stddev == 0 returns mean exactly.
  double gaussian(double mean, double stddev);

  /// Gaussian deviate clamped into [lo, hi].  This is the paper's
  /// execution-time construction (eqs. (4)-(5) plus the clamping step
  /// described in footnote 5).
  double clamped_gaussian(double mean, double stddev, double lo, double hi);

  /// Derives an independent child seed; used to give each task its own
  /// stream so that adding tasks does not perturb others' draws.
  std::uint64_t fork_seed();

  std::mt19937_64& engine() { return engine_; }

  /// Read-only engine access, used to fingerprint (and compare) the
  /// exact generator state between simulation checkpoints.
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace lpfps
