// The audit's per-plan window lookup and per-release segment lookup:
// windows sorted by release are searched by bisection plus a bounded
// backward walk, releases walk the trace with a forward cursor, and job
// records out of release order fall back to a linear scan.  These tests
// pin the D1/D2/S2 verdicts those lookups feed — on overloaded traces
// whose job windows overlap, and on traces whose records were shuffled.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "power/processor.h"
#include "sched/priority.h"
#include "sched/task.h"
#include "sim/trace.h"

namespace lpfps::audit {
namespace {

using sim::JobRecord;
using sim::ProcessorMode;
using sim::Segment;

/// The lookup-fed verdicts of a report: plans checked plus the count of
/// every D1/D2/S2 code, as "plans=N D1.overrun=M ...".
std::string verdicts(const AuditReport& report) {
  std::map<std::string, int> codes;
  for (const Violation& v : report.violations) {
    if (v.invariant.rfind("D", 0) == 0 || v.invariant.rfind("S2", 0) == 0) {
      ++codes[v.invariant];
    }
  }
  std::string out = "plans=" + std::to_string(report.plans_checked);
  for (const auto& [code, count] : codes) {
    out += " " + code + "=" + std::to_string(count);
  }
  return out;
}

bool has_code(const AuditReport& report, const std::string& code) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const Violation& v) { return v.invariant == code; });
}

/// `tasks` with every WCET scaled by `wcet_scale` (capped at D) and every
/// period scaled by `period_scale` (D = T): the audit then holds the
/// same trace to a heavier or more frequently released set.
sched::TaskSet reshaped(const sched::TaskSet& tasks, double wcet_scale,
                        double period_scale) {
  sched::TaskSet out;
  for (sched::Task task : tasks.tasks()) {
    task.period = static_cast<std::int64_t>(
        static_cast<double>(task.period) * period_scale);
    task.deadline = task.period;
    task.wcet = std::min(task.wcet * wcet_scale,
                         static_cast<double>(task.deadline));
    task.bcet = std::min(task.bcet, task.wcet);
    out.add(task);
  }
  return out;
}

/// A transiently overloaded set (U = 1.11 at WCET, BCET near WCET):
/// slowdown plans in the calm stretches, declared misses in the bursts.
sched::TaskSet bursty_set() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 700, 700, 200.0, 150.0, 0));
  tasks.add(sched::make_task("b", 2300, 2300, 900.0, 700.0, 0));
  tasks.add(sched::make_task("c", 5000, 5000, 1500.0, 1100.0, 0));
  tasks.add(sched::make_task("d", 9000, 9000, 1200.0, 900.0, 0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

/// A set that never misses (U = 1.05 at WCET, but BCET far below it),
/// for the record-order differential.
sched::TaskSet calm_set() {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("a", 800, 800, 350.0, 50.0, 0));
  tasks.add(sched::make_task("b", 2000, 2000, 900.0, 100.0, 0));
  tasks.add(sched::make_task("c", 6000, 6000, 1000.0, 200.0, 0));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

core::SimulationResult run(const sched::TaskSet& tasks,
                           const core::SchedulerPolicy& policy,
                           std::uint64_t seed) {
  core::EngineOptions options;
  options.horizon = 400000.0;
  options.seed = seed;
  options.record_trace = true;
  options.throw_on_miss = false;
  return core::simulate(tasks, power::ProcessorConfig::arm8_default(), policy,
                        std::make_shared<exec::ClampedGaussianModel>(),
                        options);
}

AuditOptions unbounded_options(const core::SchedulerPolicy& policy) {
  core::EngineOptions options;
  options.throw_on_miss = false;
  AuditOptions audit = derive_options(policy, options);
  audit.max_violations = 1 << 20;
  return audit;
}

/// Jobs whose window outlives the next release of their task.
int overlapping_windows(const sched::TaskSet& tasks, const sim::Trace& trace) {
  int overlaps = 0;
  for (const JobRecord& job : trace.jobs()) {
    if (job.finished &&
        job.completion > job.release + static_cast<Time>(tasks[job.task].period)) {
      ++overlaps;
    }
  }
  return overlaps;
}

TEST(AuditLookup, OverlappingWindowsKeepTheirVerdicts) {
  // Recorded with a linear scan over all windows per plan and a full
  // bisection per release; the indexed lookups must reproduce them.
  struct Expected {
    const char* own;
    const char* heavier;
    const char* faster;
  };
  const auto cpu = power::ProcessorConfig::arm8_default();
  const sched::TaskSet tasks = bursty_set();
  const core::SchedulerPolicy policies[] = {
      core::SchedulerPolicy::lpfps(), core::SchedulerPolicy::lpfps_optimal()};
  const Expected expected[] = {
      {"plans=30", "plans=30 D2.capacity=30",
       "plans=30 D1.overrun=13 D2.capacity=10"},
      {"plans=29", "plans=29 D2.capacity=29",
       "plans=29 D1.overrun=13 D2.capacity=10"},
  };
  for (int p = 0; p < 2; ++p) {
    SCOPED_TRACE(policies[p].name);
    const core::SimulationResult result = run(tasks, policies[p], 8);
    EXPECT_EQ(result.deadline_misses, 10);
    EXPECT_EQ(overlapping_windows(tasks, *result.trace), 10);
    const AuditOptions options = unbounded_options(policies[p]);
    EXPECT_EQ(verdicts(audit_run(result, tasks, cpu, options)),
              expected[p].own);
    EXPECT_EQ(verdicts(audit_run(result, reshaped(tasks, 1.25, 1.0), cpu,
                                 options)),
              expected[p].heavier);
    EXPECT_EQ(verdicts(audit_run(result, reshaped(tasks, 1.0, 0.75), cpu,
                                 options)),
              expected[p].faster);
  }
}

Segment seg(Time begin, Time end, ProcessorMode mode, TaskIndex task,
            Ratio rb, Ratio re) {
  Segment s;
  s.begin = begin;
  s.end = end;
  s.mode = mode;
  s.task = task;
  s.ratio_begin = rb;
  s.ratio_end = re;
  return s;
}

JobRecord job(std::int64_t instance, Time release, Time completion,
              Work executed) {
  JobRecord j;
  j.task = 0;
  j.instance = instance;
  j.release = release;
  j.absolute_deadline = release + 100.0;
  j.completion = completion;
  j.executed = executed;
  j.finished = true;
  j.missed_deadline = completion > j.absolute_deadline;
  return j;
}

sched::TaskSet solo_task(Work wcet) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("solo", 100, wcet));
  sched::assign_rate_monotonic(tasks);
  return tasks;
}

/// audit_run over a hand-built trace of the solo task (the result's
/// counters are left empty, so only the trace-derived verdicts matter).
AuditReport audit_solo(std::vector<Segment> segments,
                       std::vector<JobRecord> jobs, Work wcet) {
  core::SimulationResult result;
  result.simulated_time = segments.back().end;
  result.trace = sim::Trace::unchecked(std::move(segments), std::move(jobs));
  AuditOptions options;
  options.max_violations = 1 << 20;
  return audit_run(result, solo_task(wcet),
                   power::ProcessorConfig::arm8_default(), options);
}

TEST(AuditLookup, LaterOverlappingWindowOwnsThePlan) {
  // Job 0 misses and runs until 130, inside job 1's window [100, 180].
  // A slowdown to 0.3 starts at t_c = 110, covered by both windows.
  // Against job 1's window (the later one) the plan cannot finish the
  // remaining 40 us of work by 200 (D2); against job 0's it would owe
  // nothing.  A 1.0 -> 0.3 ramp at rho = 0.07 takes 10 us.
  const std::vector<Segment> segments = {
      seg(0.0, 110.0, ProcessorMode::kRunning, 0, 1.0, 1.0),
      seg(110.0, 120.0, ProcessorMode::kRunning, 0, 1.0, 0.3),
      seg(120.0, 150.0, ProcessorMode::kRunning, 0, 0.3, 0.3),
      seg(150.0, 160.0, ProcessorMode::kRunning, 0, 0.3, 1.0),
      seg(160.0, 180.0, ProcessorMode::kRunning, 0, 1.0, 1.0),
      seg(180.0, 200.0, ProcessorMode::kIdleBusyWait, kNoTask, 1.0, 1.0)};
  const std::vector<JobRecord> jobs = {job(0, 0.0, 130.0, 50.0),
                                       job(1, 100.0, 180.0, 50.0)};
  const AuditReport report = audit_solo(segments, jobs, 50.0);
  EXPECT_EQ(verdicts(report), "plans=1 D2.capacity=1") << report.to_string();
}

/// Clean three-job timeline of the solo task (C = 50) with one fault
/// spliced in per case; `jobs` always describes three jobs.
struct Corruption {
  const char* code;
  std::vector<Segment> segments;
  std::vector<JobRecord> jobs;
};

std::vector<Corruption> corruptions() {
  const auto run = [](Time b, Time e, Ratio rb = 1.0, Ratio re = 1.0) {
    return seg(b, e, ProcessorMode::kRunning, 0, rb, re);
  };
  const auto idle = [](Time b, Time e) {
    return seg(b, e, ProcessorMode::kIdleBusyWait, kNoTask, 1.0, 1.0);
  };
  std::vector<Corruption> cases;
  // The processor sleeps straight through job 1's release.
  cases.push_back({"S2.asleep",
                   {run(0, 50), idle(50, 90),
                    seg(90, 110, ProcessorMode::kPowerDown, kNoTask, 1, 1),
                    run(110, 160), idle(160, 200), run(200, 250),
                    idle(250, 300)},
                   {job(0, 0, 50, 50), job(1, 100, 160, 50),
                    job(2, 200, 250, 50)}});
  // Job 0's slowdown is still at 0.5 when job 1 is released.
  cases.push_back({"S2.slow-at-release",
                   {run(0, 40), run(40, 50, 1.0, 0.3), run(50, 100, 0.3, 0.3),
                    run(100, 110, 0.3, 1.0), run(110, 150), idle(150, 200),
                    run(200, 250), idle(250, 300)},
                   {job(0, 0, 100, 50), job(1, 100, 150, 50),
                    job(2, 200, 250, 50)}});
  // Job 1 slows to 0.3 at 110 and only returns to base at 210.
  cases.push_back({"D1.overrun",
                   {run(0, 50), idle(50, 100), run(100, 110),
                    run(110, 120, 1.0, 0.3), run(120, 200, 0.3, 0.3),
                    run(200, 210, 0.3, 1.0), run(210, 250), idle(250, 300)},
                   {job(0, 0, 50, 50), job(1, 100, 210, 50),
                    job(2, 210, 250, 40)}});
  // Job 1's slowdown to 0.1 cannot cover its remaining work.
  cases.push_back({"D2.capacity",
                   {run(0, 50), idle(50, 100), run(100, 110),
                    run(110, 120, 1.0, 0.3), run(120, 130, 0.3, 0.3),
                    run(130, 140, 0.3, 1.0), run(140, 150), idle(150, 200),
                    run(200, 250), idle(250, 300)},
                   {job(0, 0, 50, 50), job(1, 100, 150, 30),
                    job(2, 200, 250, 50)}});
  return cases;
}

TEST(AuditLookup, ShuffledRecordsStillFlagEachCorruption) {
  for (const Corruption& c : corruptions()) {
    SCOPED_TRACE(c.code);
    const AuditReport ordered = audit_solo(c.segments, c.jobs, 50.0);
    ASSERT_TRUE(has_code(ordered, c.code)) << ordered.to_string();
    std::vector<JobRecord> reversed(c.jobs.rbegin(), c.jobs.rend());
    const AuditReport scanned = audit_solo(c.segments, reversed, 50.0);
    EXPECT_TRUE(has_code(scanned, "J1.instance")) << scanned.to_string();
    EXPECT_TRUE(has_code(scanned, c.code)) << scanned.to_string();
    EXPECT_EQ(verdicts(scanned), verdicts(ordered));
  }
}

TEST(AuditLookup, RecordOrderDoesNotChangeVerdictsWithoutOverlap) {
  // Without overlapping windows every instant has at most one covering
  // window, so the sorted lookups and the fallback scan must agree on
  // every plan and release.
  const auto cpu = power::ProcessorConfig::arm8_default();
  const sched::TaskSet tasks = calm_set();
  const core::SchedulerPolicy policy = core::SchedulerPolicy::lpfps();
  const core::SimulationResult result = run(tasks, policy, 10);
  ASSERT_EQ(overlapping_windows(tasks, *result.trace), 0);
  const AuditOptions options = unbounded_options(policy);

  std::vector<JobRecord> shuffled = result.trace->jobs();
  std::mt19937 rng(3);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  core::SimulationResult scrambled = result;
  scrambled.trace =
      sim::Trace::unchecked(result.trace->segments(), std::move(shuffled));

  for (const sched::TaskSet& audited :
       {tasks, reshaped(tasks, 1.25, 1.0), reshaped(tasks, 1.0, 0.75)}) {
    const AuditReport ordered = audit_run(result, audited, cpu, options);
    const AuditReport scanned = audit_run(scrambled, audited, cpu, options);
    EXPECT_GT(ordered.plans_checked, 0);
    EXPECT_EQ(verdicts(scanned), verdicts(ordered));
  }
}

}  // namespace
}  // namespace lpfps::audit
