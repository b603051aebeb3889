// perfbench: one end-to-end benchmark for lpfps.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Prints the environment, human-readable notes and one line per metric,
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (and writes the spans to --spans, one JSON object per line).
// Exits 0 only when every output checked out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "env.h"
#include "workloads.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  const auto knobs = perfbench::knobs_set();
  if (!knobs.empty()) {
    std::string names;
    for (const std::string& knob : knobs) names += " " + knob;
    std::fprintf(stderr,
                 "perfbench: refusing to run with%s set; the benchmark "
                 "measures the library's defaults\n",
                 names.c_str());
    return 3;
  }

  std::printf("# env %s\n",
              perfbench::environment_json(config.workload, config.seed,
                                          config.seconds, config.trace)
                  .c_str());
  perfbench::RunResult result;
  try {
    result = perfbench::run(config);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("digest %016llx (%s)\n",
              static_cast<unsigned long long>(result.digest),
              !result.digest_pinned ? "not pinned for this seed"
              : result.digest_ok    ? "matches the pinned digest"
                                    : "MISMATCH against the pinned digest");
  std::printf("failed_frac %.6g (%lld failed of %lld attempted)\n",
              result.tally.failed_frac(),
              static_cast<long long>(result.tally.failed),
              static_cast<long long>(result.tally.attempted));
  if (config.trace && !spans_path.empty()) {
    if (!result.tracer.write_jsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans %zu written to %s\n", result.tracer.spans().size(),
                spans_path.c_str());
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct() ? "true" : "false",
      static_cast<long long>(result.tally.attempted),
      static_cast<long long>(result.tally.failed), metrics.c_str());
  return result.correct() ? 0 : 1;
}
