// Default-on environment switches.
//
// LPFPS_AUDIT (the trace audit) and LPFPS_CYCLE (steady-state
// fast-forward) are on unless set to "0", "off" or "false"; any other
// value, the empty string included, leaves them on.
#pragma once

#include <cstdlib>
#include <cstring>

namespace lpfps {

/// True unless environment variable `name` is set to "0", "off" or
/// "false".  Re-reads the environment on every call.
inline bool env_flag_enabled(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return true;
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "false") != 0;
}

}  // namespace lpfps
