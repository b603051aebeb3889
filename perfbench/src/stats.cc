#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "core/fingerprint.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<double> reportable_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly above the q-th percentile: n * (1 - q/100),
    // computed in tenths of a percent to stay exact.
    const std::size_t beyond =
        n * static_cast<std::size_t>(std::lround(1000.0 - q * 10.0)) / 1000;
    if (beyond >= 10) return q;
  }
  return std::nullopt;
}

namespace {

constexpr double kHistogramMinUs = 0.01;
constexpr double kHistogramGrowth = 1.01;

}  // namespace

void Histogram::add(double us) {
  std::size_t index = 0;
  if (us > kHistogramMinUs) {
    const double step =
        std::log(us / kHistogramMinUs) / std::log(kHistogramGrowth);
    index = std::min(kBuckets - 1, static_cast<std::size_t>(step) + 1);
  }
  ++buckets_[index];
  ++count_;
}

void Histogram::clear() {
  buckets_.fill(0);
  count_ = 0;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(count_)));
  std::size_t seen = 0;
  std::size_t index = 0;
  for (; index + 1 < kBuckets; ++index) {
    seen += buckets_[index];
    if (static_cast<double>(seen) >= rank) break;
  }
  if (index == 0) return kHistogramMinUs;
  return kHistogramMinUs *
         std::pow(kHistogramGrowth, static_cast<double>(index) - 0.5);
}

std::uint64_t result_digest(const lpfps::core::SimulationResult& r) {
  lpfps::core::FnvHasher d;
  d.mix(r.simulated_time).mix(r.total_energy).mix(r.average_power);
  d.mix(r.mean_running_ratio);
  for (const auto& mode : r.by_mode) d.mix(mode.energy).mix(mode.time);
  for (const int counter :
       {r.jobs_completed, r.deadline_misses, r.context_switches,
        r.scheduler_invocations, r.speed_changes, r.power_downs,
        r.dvs_slowdowns, r.run_queue_high_water, r.delay_queue_high_water,
        r.overruns_detected, r.ramp_faults_detected, r.late_wakeups_detected,
        r.jobs_killed, r.jobs_throttled, r.jobs_skipped, r.safe_mode_entries,
        r.jobs_skipped_weakly, r.mk_violations}) {
    d.mix(std::int32_t{counter});
  }
  return d.digest();
}

std::uint64_t decision_digest(const lpfps::admission::Decision& decision) {
  lpfps::core::FnvHasher d;
  d.mix(static_cast<std::int32_t>(decision.kind));
  d.mix_bytes(&decision.admitted, sizeof(decision.admitted));
  d.mix(std::int32_t{decision.min_level});
  d.mix(decision.min_safe_mhz).mix(decision.min_safe_ratio);
  d.mix(decision.wcet_headroom).mix(decision.fingerprint);
  d.mix(decision.task_count).mix(decision.utilization);
  return d.digest();
}

double peak_rss_mb() {
  // VmHWM belongs to this program image.  getrusage's ru_maxrss would
  // not do: Linux carries it across execve, so it also holds the peak
  // of the launcher that forked this process.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
