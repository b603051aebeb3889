// Measurement helpers: the percentile rule, latency samples, failure
// accounting and result digests.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "admission/types.h"
#include "core/result.h"

namespace perfbench {

/// Median of `values` (mean of the middle pair for even counts).
double median(std::vector<double> values);

/// The tail rule: the highest percentile in {99.9, 99, 95, 90, 75, 50}
/// that leaves at least 10 of `n` samples beyond it, or nullopt when
/// even the median does not (n < 20).  So no p99 below 1000 samples.
std::optional<double> reportable_percentile(std::size_t n);

/// Latency histogram with a fixed footprint of a few KiB: log-spaced
/// buckets 1% wide from 0.01 us up, so peak RSS carries no sample
/// buffers and does not grow with the program's speed.  Percentiles are
/// nearest-rank over the buckets, reported at a bucket's geometric
/// middle: within half a percent of the exact sample.
class Histogram {
 public:
  void add(double us);
  void clear();
  std::size_t count() const { return count_; }
  /// Nearest-rank percentile (q in [0, 100]); 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 2400;  // 0.01 us .. ~2e8 us.
  std::array<std::uint32_t, kBuckets> buckets_{};
  std::size_t count_ = 0;
};

/// Attempted/failed accounting.  A failure is a simulation that
/// throws, an audit violation, a deadline miss on a hard-only spec, or
/// an admission decision that differs from its reference.  A rejected
/// admission request is a decision like any other, not a failure.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Counts an extra failure against an operation already attempted
  /// (a check that runs after the timed loop).
  void fail_after() { ++failed; }
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Digest of a simulation's output: energy bits and every counter.
std::uint64_t result_digest(const lpfps::core::SimulationResult& result);

/// Digest of an admission decision's decision fields (the ones the
/// analysis arms must agree on bit for bit; accounting is excluded).
std::uint64_t decision_digest(const lpfps::admission::Decision& decision);

/// Peak resident set size of this program image, in MiB.
double peak_rss_mb();

}  // namespace perfbench
