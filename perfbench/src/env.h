// Run environment: the knobs the benchmark refuses, and the facts it
// records beside every result.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// The library's environment knobs.  The benchmark measures the shipped
/// defaults, so it refuses to run while any of them is set.
const std::vector<std::string>& pinned_knobs();

/// Names of the pinned knobs currently set in the environment.
std::vector<std::string> knobs_set();

/// One JSON object: host, nproc, compiler, build type, commit, seed.
/// `commit` comes from PERFBENCH_COMMIT (the launcher sets it; a
/// checkout without git history reports the source digest instead).
std::string environment_json(const std::string& workload,
                             unsigned long long seed, double seconds,
                             bool trace);

}  // namespace perfbench
