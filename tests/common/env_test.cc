// The default-on environment switches: LPFPS_AUDIT (audit::enabled) and
// LPFPS_CYCLE (core::cycle_detection_env_enabled) share one parser, so
// every value reads the same for both.
#include "common/env.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "audit/harness.h"
#include "core/engine.h"
#include "gtest/gtest.h"

namespace lpfps {
namespace {

TEST(EnvFlag, DefaultOnKnobsParseAlike) {
  struct Knob {
    const char* name;
    bool (*reader)();
  };
  struct Case {
    const char* value;  ///< nullptr: unset.
    bool enabled;
  };
  const Knob knobs[] = {{"LPFPS_AUDIT", &audit::enabled},
                        {"LPFPS_CYCLE", &core::cycle_detection_env_enabled}};
  const Case cases[] = {{nullptr, true}, {"", true},     {"0", false},
                        {"off", false},  {"false", false}, {"1", true}};
  for (const Knob& knob : knobs) {
    const char* before = std::getenv(knob.name);
    const std::optional<std::string> saved =
        before != nullptr ? std::optional<std::string>(before) : std::nullopt;
    for (const Case& c : cases) {
      if (c.value == nullptr) {
        ASSERT_EQ(unsetenv(knob.name), 0);
      } else {
        ASSERT_EQ(setenv(knob.name, c.value, 1), 0);
      }
      const std::string label =
          std::string(knob.name) + "=" + (c.value ? c.value : "(unset)");
      EXPECT_EQ(env_flag_enabled(knob.name), c.enabled) << label;
      EXPECT_EQ(knob.reader(), c.enabled) << label;
    }
    if (saved) {
      ASSERT_EQ(setenv(knob.name, saved->c_str(), 1), 0);
    } else {
      ASSERT_EQ(unsetenv(knob.name), 0);
    }
  }
}

}  // namespace
}  // namespace lpfps
