#include "common/random.h"

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps {

double Rng::uniform(double lo, double hi) {
  LPFPS_CHECK(lo <= hi);
  if (lo == hi) return lo;
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LPFPS_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  LPFPS_CHECK(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::clamped_gaussian(double mean, double stddev, double lo,
                             double hi) {
  LPFPS_CHECK(lo <= hi);
  return clamp(gaussian(mean, stddev), lo, hi);
}

std::uint64_t Rng::fork_seed() {
  // splitmix-style scrambling of a raw draw so that child streams do not
  // correlate with the parent's subsequent output.
  std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace lpfps
