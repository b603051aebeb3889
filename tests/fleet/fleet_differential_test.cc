// Differential suite pinning the fleet engine's bit-identity contract:
// every simulation run through fleet::FleetEngine — on a lane rebound
// from any predecessor, mixed with any neighbours, failing ones
// included — must produce results bit-identical to a serial
// core::simulate of the same spec.  Identity
// is asserted on the serialized forms the repo treats as ground truth
// (io::result_csv_row, trace segment/job CSVs), the same currency the
// runner-determinism and cycle-detection suites use.
#include "fleet/fleet.h"

#include <memory>
#include <stdexcept>
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
      fleet::run_fleet_sharded(specs, fleet::FleetOptions{}, 1);
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
      fleet::run_fleet_sharded(specs, fleet::FleetOptions{}, 1);
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

  const auto outcomes = fleet::run_fleet_sharded_isolated(specs, {}, 1);
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

/// A fresh-lane reference for one spec: a serial core::simulate's
/// result row and full identity, or its exception text in both.
struct Reference {
  std::string row;
  std::string full;
};

Reference serial_reference(const fleet::SimSpec& spec) {
  try {
    const core::SimulationResult result =
        core::simulate(spec.tasks, spec.processor, spec.policy,
                       spec.exec_model, spec.options);
    return {io::result_csv_row(result), identity(spec.tasks, result)};
  } catch (const std::exception& e) {
    const std::string error = std::string("error: ") + e.what();
    return {error, error};
  }
}

fleet::SimSpec uunifast_spec(Rng& rng, int task_count, Time horizon,
                             const core::SchedulerPolicy& policy,
                             std::uint64_t seed) {
  workloads::GeneratorConfig config;
  config.task_count = task_count;
  config.total_utilization = 0.6;
  config.bcet_ratio = 0.5;
  config.period_min = 10'000;
  config.period_max = 80'000;
  config.period_granularity = 10'000;
  sched::TaskSet tasks;
  do {
    tasks = workloads::generate_task_set(config, rng);
  } while (!sched::is_schedulable_rta(tasks));
  core::EngineOptions options;
  options.horizon = horizon;
  options.seed = seed;
  options.record_trace = true;
  return {std::move(tasks), power::ProcessorConfig::arm8_default(), policy,
          std::make_shared<exec::ClampedGaussianModel>(), options};
}

/// Trace recycling: a visitor that hands some traces back to the lane
/// must leave every result — kept traces, recycled runs, a failure that
/// abandons a half-written trace in the lane, a larger set recording
/// into a smaller set's buffers — bit-identical to a fresh
/// core::simulate, on one lane and across sharded workers.
TEST(FleetDifferential, RecycledLaneIsBitIdentical) {
  Rng rng(5);
  const auto fps = core::SchedulerPolicy::fps();
  const auto lpfps = core::SchedulerPolicy::lpfps();
  std::vector<fleet::SimSpec> specs;
  std::vector<bool> keep;
  const auto push = [&](fleet::SimSpec spec, bool kept) {
    specs.push_back(std::move(spec));
    keep.push_back(kept);
  };
  push(uunifast_spec(rng, 4, 400'000, lpfps, 1), false);
  // Smaller than its predecessor: records into the recycled buffers.
  const std::size_t reuses_buffer = specs.size();
  push(uunifast_spec(rng, 2, 100'000, fps, 2), true);
  // Throws mid-run, leaving its half-written trace in the lane.
  const std::size_t failing = specs.size();
  {
    sched::TaskSet tasks;
    tasks.add(sched::make_task("hog", 100, 80.0));
    tasks.add(sched::make_task("late", 100, 40.0));
    sched::assign_rate_monotonic(tasks);
    core::EngineOptions options;
    options.horizon = 1'000;
    options.seed = 3;
    options.record_trace = true;
    push({std::move(tasks), power::ProcessorConfig::arm8_default(), fps,
          nullptr, options},
         false);
  }
  push(uunifast_spec(rng, 2, 100'000, lpfps, 4), false);
  // Larger than anything before it: the recycled buffers must grow.
  push(uunifast_spec(rng, 10, 800'000, lpfps, 5), false);
  push(uunifast_spec(rng, 6, 400'000, fps, 6), true);
  push(uunifast_spec(rng, 3, 200'000, lpfps, 7), false);
  push(uunifast_spec(rng, 8, 800'000, fps, 8), true);
  // A spec that records no trace at all, then one that keeps it.
  {
    fleet::SimSpec spec = uunifast_spec(rng, 5, 400'000, lpfps, 9);
    spec.options.record_trace = false;
    push(std::move(spec), false);
  }
  push(uunifast_spec(rng, 5, 400'000, lpfps, 10), true);

  std::vector<Reference> serial;
  for (const fleet::SimSpec& spec : specs) {
    serial.push_back(serial_reference(spec));
  }
  ASSERT_EQ(serial[failing].full.rfind("error: deadline miss", 0), 0u);

  // One lane, two rounds: round two rebinds a lane that already holds
  // recycled buffers from round one.
  fleet::FleetEngine engine;
  for (const fleet::SimSpec& spec : specs) engine.add(spec);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> visited(specs.size());
    std::vector<const sim::Segment*> buffer(specs.size(), nullptr);
    const auto outcomes = engine.run_outcomes(
        [&](std::size_t i, const fleet::SimSpec& spec,
            const core::SimulationResult& result) {
          // The visitor sees the full trace, recycled or not.
          visited[i] = identity(spec.tasks, result);
          if (result.trace) buffer[i] = result.trace->segments().data();
          return static_cast<bool>(keep[i]);
        });
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == failing) {
        EXPECT_FALSE(outcomes[i].ok());
        EXPECT_EQ("error: " + outcomes[i].error, serial[i].full);
        EXPECT_TRUE(visited[i].empty()) << "visitor saw a failed sim";
        continue;
      }
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
      const core::SimulationResult& result = *outcomes[i].result;
      EXPECT_EQ(visited[i], serial[i].full)
          << "sim " << i << ", round " << round;
      EXPECT_EQ(io::result_csv_row(result), serial[i].row) << "sim " << i;
      if (keep[i] && specs[i].options.record_trace) {
        ASSERT_TRUE(result.trace.has_value()) << "sim " << i;
        EXPECT_EQ(identity(specs[i].tasks, result), serial[i].full)
            << "kept trace " << i << " diverged in round " << round;
      } else {
        EXPECT_FALSE(result.trace.has_value()) << "sim " << i;
      }
    }
    // The smaller set recorded into its predecessor's recycled buffer.
    EXPECT_EQ(buffer[reuses_buffer], buffer[reuses_buffer - 1]);
    EXPECT_EQ(engine.stats().lane_constructions, round == 0 ? 1u : 0u);
  }

  // Sharded: the same visitor runs concurrently on every worker.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    std::vector<fleet::SimSpec> healthy;
    std::vector<std::size_t> original;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == failing) continue;
      healthy.push_back(specs[i]);
      original.push_back(i);
    }
    std::vector<std::string> visited(healthy.size());
    const auto results = fleet::run_fleet_sharded(
        healthy, {}, workers,
        [&](std::size_t i, const fleet::SimSpec& spec,
            const core::SimulationResult& result) {
          visited[i] = identity(spec.tasks, result);
          return static_cast<bool>(keep[original[i]]);
        });
    ASSERT_EQ(results.size(), healthy.size());
    for (std::size_t j = 0; j < healthy.size(); ++j) {
      const std::size_t i = original[j];
      EXPECT_EQ(visited[j], serial[i].full) << "sim " << i << ", " << workers;
      EXPECT_EQ(identity(specs[i].tasks, results[j]),
                keep[i] ? serial[i].full : serial[i].row)
          << "sim " << i << ", " << workers << " workers";
    }
  }
}

/// The audit battery accepts fleet-produced traces: zero violations
/// over a batched sweep, with the aggregator seeing every run.
TEST(FleetDifferential, AuditPassOverFleetTraces) {
  const std::vector<fleet::SimSpec> specs = make_specs(4, false);
  audit::AuditAggregator agg("fleet_differential");
  const auto results =
      audit::simulate_fleet_sharded(specs, fleet::FleetOptions{}, &agg, 1);
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
