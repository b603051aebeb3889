#include "env.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

const std::vector<std::string>& pinned_knobs() {
  static const std::vector<std::string> knobs = {
      "LPFPS_AUDIT", "LPFPS_FLEET",           "LPFPS_JOBS",
      "LPFPS_CYCLE", "LPFPS_ADMISSION_CACHE", "LPFPS_HORIZON_SCALE"};
  return knobs;
}

std::vector<std::string> knobs_set() {
  std::vector<std::string> set;
  for (const std::string& knob : pinned_knobs()) {
    if (std::getenv(knob.c_str()) != nullptr) set.push_back(knob);
  }
  return set;
}

namespace {

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string environment_json(const std::string& workload,
                             unsigned long long seed, double seconds,
                             bool trace) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"host\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"commit\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%s,\"fleet_workers\":2}",
      escaped(host).c_str(), std::thread::hardware_concurrency(),
      escaped(PERFBENCH_COMPILER).c_str(),
      escaped(PERFBENCH_BUILD_TYPE).c_str(),
      escaped(commit != nullptr ? commit : "unknown").c_str(),
      escaped(workload).c_str(), seed, seconds, trace ? "true" : "false");
  return buffer;
}

}  // namespace perfbench
