#include <gtest/gtest.h>

#include "audit/audit.h"
#include "core/engine.h"
#include "sched/priority.h"
#include "workloads/example.h"

namespace lpfps::core {
namespace {

using sim::ProcessorMode;

power::ProcessorConfig cpu() { return power::ProcessorConfig::arm8_default(); }

sched::TaskSet single_task(std::int64_t period, Work wcet) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("solo", period, wcet));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

EngineOptions options(Time horizon, bool trace = false) {
  EngineOptions opts;
  opts.horizon = horizon;
  opts.record_trace = trace;
  return opts;
}

TEST(EnginePowerDown, ExactShutdownEnergyIsAnalytic) {
  // Power-down-only policy, one task C=20 T=100 at WCET: per period the
  // processor runs [0,20] at full power, powers down until the timer at
  // 99.9 (= release - 0.1 us wake-up), and wakes at full power for
  // 0.1 us.  Energy/period = 20 + 79.9*0.05 + 0.1 = 24.095.
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu(),
               SchedulerPolicy::lpfps_powerdown_only(), nullptr,
               options(1000.0));
  EXPECT_NEAR(result.average_power, 24.095 / 100.0, 1e-6);
  EXPECT_EQ(result.power_downs, 10);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(EnginePowerDown, TimerSetEarlyByWakeupDelay) {
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu(),
               SchedulerPolicy::lpfps_powerdown_only(), nullptr,
               options(100.0, true));
  ASSERT_TRUE(result.trace.has_value());
  bool saw_wakeup = false;
  for (const sim::Segment& s : result.trace->segments()) {
    if (s.mode == ProcessorMode::kWakeUp) {
      saw_wakeup = true;
      EXPECT_NEAR(s.begin, 99.9, 1e-9);  // L14: release - wakeup delay.
      EXPECT_NEAR(s.end, 100.0, 1e-9);
    }
    if (s.mode == ProcessorMode::kPowerDown) {
      EXPECT_NEAR(s.begin, 20.0, 1e-9);
      EXPECT_NEAR(s.end, 99.9, 1e-9);
    }
  }
  EXPECT_TRUE(saw_wakeup);
}

TEST(EnginePowerDown, BeatsNopBusyWaiting) {
  const sched::TaskSet tasks = single_task(100, 20.0);
  const SimulationResult fps = simulate(tasks, cpu(), SchedulerPolicy::fps(),
                                        nullptr, options(1000.0));
  const SimulationResult pd =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps_powerdown_only(),
               nullptr, options(1000.0));
  // FPS: 20 + 80*0.2 = 36 per period.
  EXPECT_NEAR(fps.average_power, 0.36, 1e-9);
  EXPECT_LT(pd.average_power, fps.average_power);
}

TEST(EnginePowerDown, NoPowerDownWhenGapTooShort) {
  // C = T - 0.05: the remaining idle gap (0.05 us) is shorter than the
  // 0.1 us wake-up delay, so the timer would already have expired; the
  // scheduler must busy-wait instead.
  sched::TaskSet tasks;
  tasks.add(sched::make_task("tight", 100, 100, 99.95, 99.95));
  sched::assign_rate_monotonic(tasks);
  const SimulationResult result =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps_powerdown_only(),
               nullptr, options(1000.0));
  EXPECT_EQ(result.power_downs, 0);
  EXPECT_EQ(result.deadline_misses, 0);
}

TEST(EnginePowerDown, WakeupAlwaysCompletesBeforeRelease) {
  const SimulationResult result =
      simulate(lpfps::workloads::example_table1(), cpu(),
               SchedulerPolicy::lpfps(), nullptr, options(4000.0, true));
  ASSERT_TRUE(result.trace.has_value());
  const auto& segments = result.trace->segments();
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i].mode == ProcessorMode::kWakeUp) {
      // The segment after a wake-up must not be another wait: a release
      // is due exactly at its end, so the processor goes busy.
      EXPECT_EQ(segments[i + 1].mode, ProcessorMode::kRunning);
    }
  }
}

TEST(EnginePowerDown, TimeoutShutdownBurnsNopBeforeSleeping) {
  // Conventional timeout policy with a 30 us timeout on the C=20/T=100
  // task: idle [20, 50) is busy-waited, then power-down [50, 99.9).
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu(),
               SchedulerPolicy::fps_timeout_shutdown(30.0), nullptr,
               options(100.0, true));
  ASSERT_TRUE(result.trace.has_value());
  Time nop_time = 0.0;
  Time pd_time = 0.0;
  for (const sim::Segment& s : result.trace->segments()) {
    if (s.mode == ProcessorMode::kIdleBusyWait) nop_time += s.duration();
    if (s.mode == ProcessorMode::kPowerDown) pd_time += s.duration();
  }
  EXPECT_NEAR(nop_time, 30.0, 1e-6);
  EXPECT_NEAR(pd_time, 49.9, 1e-6);
}

TEST(EnginePowerDown, TimeoutLongerThanGapNeverSleeps) {
  const SimulationResult result =
      simulate(single_task(100, 20.0), cpu(),
               SchedulerPolicy::fps_timeout_shutdown(200.0), nullptr,
               options(1000.0));
  EXPECT_EQ(result.power_downs, 0);
}

TEST(EnginePowerDown, TimeoutZeroMatchesExactPowerDown) {
  const sched::TaskSet tasks = single_task(100, 20.0);
  const SimulationResult exact =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps_powerdown_only(),
               nullptr, options(1000.0));
  const SimulationResult timeout0 =
      simulate(tasks, cpu(), SchedulerPolicy::fps_timeout_shutdown(0.0),
               nullptr, options(1000.0));
  EXPECT_NEAR(exact.total_energy, timeout0.total_energy, 1e-6);
}

TEST(EnginePowerDown, ConventionalTimeoutWastesEnergyVersusExact) {
  // The related-work comparison of §2.1: intermittent short idle gaps
  // make timeout shutdown miss most of the saving.
  const sched::TaskSet tasks = single_task(100, 20.0);
  const SimulationResult exact =
      simulate(tasks, cpu(), SchedulerPolicy::lpfps_powerdown_only(),
               nullptr, options(1000.0));
  const SimulationResult timeout =
      simulate(tasks, cpu(), SchedulerPolicy::fps_timeout_shutdown(60.0),
               nullptr, options(1000.0));
  EXPECT_LT(exact.total_energy, timeout.total_energy);
}

TEST(EnginePowerDown, PowerDownAtHorizonIsNotCounted) {
  // C = 50, T = 100 at WCET: the job completes at 50, 150, 250, ...  A
  // run ending exactly at a completion must not count a power-down it
  // never records: audit C2 compares the counter with the trace.
  const sched::TaskSet tasks = single_task(100, 50.0);
  for (const Time horizon : {50.0, 250.0}) {
    const SimulationResult result =
        simulate(tasks, cpu(), SchedulerPolicy::lpfps_powerdown_only(),
                 nullptr, options(horizon, true));
    ASSERT_TRUE(result.trace.has_value());
    int sleeps = 0;
    for (const sim::Segment& s : result.trace->segments()) {
      if (s.mode == ProcessorMode::kPowerDown) ++sleeps;
    }
    EXPECT_EQ(result.power_downs, sleeps) << "horizon " << horizon;
    const audit::AuditReport report = audit::audit_run(result, tasks, cpu());
    EXPECT_TRUE(report.ok()) << "horizon " << horizon << ": "
                             << report.to_string();
  }
}

}  // namespace
}  // namespace lpfps::core
