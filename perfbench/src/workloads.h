// The benchmark's four workloads and the run protocol around them.
//
// A run builds its inputs from the seed (set-up, repeated and timed),
// then measures whole passes over those inputs until `seconds` have
// elapsed.  Untraced, it reports the end-to-end metrics.  Traced, it
// measures an untraced window first, then the same window with spans
// around every call into a layer, then the reference replays, and
// reports the per-layer metrics.  Either way every output is checked:
// see Tally for what counts as a failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {

/// The seed the result digests are pinned for.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  Tally tally;
  /// Digest of pass 0 (energy bits, counters, decision digests): a
  /// pure function of the seed.
  std::uint64_t digest = 0;
  /// Whether `digest` was compared against the pinned value (default
  /// seed only) and matched.
  bool digest_pinned = false;
  bool digest_ok = true;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (accuracy, sample
  /// counts, percentiles used).
  std::vector<std::string> notes;
  /// Spans of a traced run.
  Tracer tracer;

  bool correct() const { return tally.failed == 0 && digest_ok; }
};

const std::vector<std::string>& workload_names();

/// End-to-end metric names, units and per-layer names, in report order.
const std::vector<Metric>& end_to_end_schema();
const std::vector<Metric>& per_layer_schema();

/// Runs one workload.  Throws std::invalid_argument for an unknown
/// workload name.
RunResult run(const RunConfig& config);

}  // namespace perfbench
