// Differential suite pinning the fleet engine's bit-identity contract:
// every simulation run through fleet::FleetEngine — on a lane rebound
// from any predecessor, mixed with any neighbours, failing ones
// included — must produce results bit-identical to a serial
// core::simulate of the same spec.  Identity
// is asserted on the serialized forms the repo treats as ground truth
// (io::result_csv_row, trace segment/job CSVs), the same currency the
// runner-determinism and cycle-detection suites use.
#include "fleet/fleet.h"

#include <string>
#include <vector>

#include "audit/harness.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "gtest/gtest.h"
#include "io/trace_io.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "sched/priority.h"
#include "workloads/example.h"
#include "workloads/generator.h"

namespace lpfps {
namespace {

std::vector<std::string> task_names(const sched::TaskSet& tasks) {
  std::vector<std::string> names;
  names.reserve(tasks.size());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
    names.push_back(tasks[i].name);
  }
  return names;
}

/// The serialized identity of one simulation result: the golden CSV row
/// plus (when a trace was recorded) every segment and job row.
std::string identity(const sched::TaskSet& tasks,
                     const core::SimulationResult& result) {
  std::string id = io::result_csv_row(result);
  if (result.trace.has_value()) {
    const std::vector<std::string> names = task_names(tasks);
    id += io::trace_segments_csv(*result.trace, names);
    id += io::trace_jobs_csv(*result.trace, names);
  }
  return id;
}

/// A diverse spec mix: RM-schedulable UUniFast sets across utilizations
/// under both policies, stochastic execution, traces on, positionally
/// seeded like every sweep in this repo.
std::vector<fleet::SimSpec> make_specs(int sets, bool record_trace) {
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  Rng rng(99);
  int generated = 0;
  while (generated < sets) {
    workloads::GeneratorConfig config;
    config.task_count = 4;
    config.total_utilization = 0.3 + 0.1 * (generated % 5);
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 80'000;
    config.period_granularity = 10'000;
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    ++generated;
    for (const auto& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      core::EngineOptions options;
      options.horizon = 400'000;
      options.seed = runner::derive_seed(2024, specs.size());
      options.record_trace = record_trace;
      specs.push_back({tasks, cpu, policy, exec, options});
    }
  }
  return specs;
}

std::vector<std::string> serial_identities(
    const std::vector<fleet::SimSpec>& specs) {
  std::vector<std::string> ids;
  ids.reserve(specs.size());
  for (const fleet::SimSpec& spec : specs) {
    ids.push_back(identity(
        spec.tasks, core::simulate(spec.tasks, spec.processor, spec.policy,
                                   spec.exec_model, spec.options)));
  }
  return ids;
}

TEST(FleetDifferential, BatchMatchesSerialAcrossWidthsAndPolicies) {
  const std::vector<fleet::SimSpec> specs = make_specs(6, true);
  const std::vector<std::string> serial = serial_identities(specs);

  const std::vector<core::SimulationResult> results =
      fleet::run_fleet(specs, fleet::FleetOptions{});
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
        << "sim " << i << " diverged";
  }
}

/// One faulted-and-contained sim and one cycle-eligible sim mixed into
/// a batch of stochastic neighbours: the fleet must reproduce the
/// containment counters and the fast-forward (cycles_detected > 0)
/// bit-for-bit, proving both feature paths run unchanged inside lanes.
TEST(FleetDifferential, MixedBatchWithFaultedAndCycleEligibleSims) {
  const auto cpu = power::ProcessorConfig::arm8_default();
  std::vector<fleet::SimSpec> specs = make_specs(2, true);

  // Faulted + contained: every job overruns by 40%, kill at budget,
  // safe-mode fallback, misses recorded instead of thrown.
  {
    core::EngineOptions options;
    options.horizon = 400'000;
    options.seed = 7;
    options.record_trace = true;
    options.throw_on_miss = false;
    options.faults.overruns = {{1.0, 0.4}};
    options.containment.on_overrun = faults::OverrunAction::kKill;
    options.containment.safe_mode_fallback = true;
    specs.push_back({workloads::example_table1(), cpu,
                     core::SchedulerPolicy::lpfps(),
                     std::make_shared<exec::ClampedGaussianModel>(),
                     options});
  }
  // Cycle-eligible: deterministic WCET execution (null model) over many
  // hyperperiods fast-forwards after two boundaries.
  {
    core::EngineOptions options;
    options.horizon = 4'000'000;
    options.seed = 11;
    options.record_trace = true;
    specs.push_back({workloads::example_table1(), cpu,
                     core::SchedulerPolicy::lpfps(), nullptr, options});
  }

  const std::vector<std::string> serial = serial_identities(specs);
  {
    // Prove the mixed batch actually exercises both paths.
    const fleet::SimSpec& faulted = specs[specs.size() - 2];
    const auto ref =
        core::simulate(faulted.tasks, faulted.processor, faulted.policy,
                       faulted.exec_model, faulted.options);
    ASSERT_GT(ref.overruns_detected, 0);
    ASSERT_GT(ref.jobs_killed, 0);
    const fleet::SimSpec& cyclic = specs.back();
    const auto cyc =
        core::simulate(cyclic.tasks, cyclic.processor, cyclic.policy,
                       cyclic.exec_model, cyclic.options);
    ASSERT_GT(cyc.cycles_detected, 0);
  }

  const std::vector<core::SimulationResult> results =
      fleet::run_fleet(specs, fleet::FleetOptions{});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
        << "sim " << i << " diverged in the mixed batch";
  }
}

/// Lane reuse must not leak state between sims: run the same specs
/// twice through one engine (the lane is rebound for every sim in
/// round two).
TEST(FleetDifferential, LaneRebindLeaksNothing) {
  const std::vector<fleet::SimSpec> specs = make_specs(5, false);
  const std::vector<std::string> serial = serial_identities(specs);

  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  for (int round = 0; round < 2; ++round) {
    const std::vector<core::SimulationResult> results = engine.run_all();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, results[i]), serial[i])
          << "sim " << i << " diverged in round " << round;
    }
  }
  EXPECT_GT(engine.stats().lane_rebinds, 0u);
}

/// A throwing sim in the middle of the batch leaves the one lane
/// mid-run; the healthy sims after it rebind that lane and must stay
/// byte-identical to serial.
TEST(FleetDifferential, IsolatedOutcomesCaptureFailuresPerLane) {
  const std::vector<fleet::SimSpec> healthy = make_specs(2, true);
  std::vector<fleet::SimSpec> specs(healthy.begin(), healthy.begin() + 2);
  // An unschedulable two-task set under strict miss semantics: the
  // second task cannot make its deadline, so this sim throws.
  {
    sched::TaskSet tasks;
    tasks.add(sched::make_task("hog", 100, 80.0));
    tasks.add(sched::make_task("late", 100, 40.0));
    sched::assign_rate_monotonic(tasks);
    core::EngineOptions options;
    options.horizon = 1'000;
    options.seed = 3;
    options.record_trace = true;  // Leaves a half-written trace behind.
    specs.push_back({std::move(tasks), power::ProcessorConfig::arm8_default(),
                     core::SchedulerPolicy::fps(), nullptr, options});
  }
  const std::size_t failing = specs.size() - 1;
  specs.insert(specs.end(), healthy.begin() + 2, healthy.end());
  ASSERT_LT(failing + 1, specs.size());

  const auto outcomes = fleet::run_fleet_isolated(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_FALSE(outcomes[failing].ok());
  EXPECT_NE(outcomes[failing].error.find("deadline miss"), std::string::npos);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == failing) continue;
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    EXPECT_EQ(identity(specs[i].tasks, *outcomes[i].result),
              identity(specs[i].tasks,
                       core::simulate(specs[i].tasks, specs[i].processor,
                                      specs[i].policy, specs[i].exec_model,
                                      specs[i].options)))
        << "healthy sim " << i << " perturbed by a failing neighbour";
  }

  // run_all surfaces the lowest-index failure as the original type.
  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  EXPECT_THROW(engine.run_all(), std::runtime_error);
  EXPECT_EQ(engine.stats().lane_constructions, 1u);  // One reused lane.
}

/// The audit battery accepts fleet-produced traces: zero violations
/// over a batched sweep, with the aggregator seeing every run.
TEST(FleetDifferential, AuditPassOverFleetTraces) {
  const std::vector<fleet::SimSpec> specs = make_specs(4, false);
  audit::AuditAggregator agg("fleet_differential");
  const auto results =
      audit::simulate_fleet(specs, fleet::FleetOptions{}, &agg);
  ASSERT_EQ(results.size(), specs.size());
  // Traces were forced for auditing, then dropped per spec.
  for (const auto& result : results) EXPECT_FALSE(result.trace.has_value());
  EXPECT_EQ(agg.runs(), static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(agg.violation_count(), 0);
  EXPECT_NO_THROW(agg.check());
}

TEST(FleetDifferential, StatsObserveBatchingMechanics) {
  const std::vector<fleet::SimSpec> specs = make_specs(9, false);  // 18 sims.
  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  const auto results = engine.run_all();
  ASSERT_EQ(results.size(), specs.size());

  const fleet::FleetStats& stats = engine.stats();
  EXPECT_EQ(stats.sims, specs.size());
  // One lane: constructed for the first sim, rebound for the rest.
  EXPECT_EQ(stats.lane_constructions, 1u);
  EXPECT_EQ(stats.lane_rebinds, specs.size() - 1);
  std::int64_t events = 0;
  for (const auto& result : results) events += result.scheduler_invocations;
  EXPECT_EQ(stats.events, events);
}

}  // namespace
}  // namespace lpfps
