// Suite pinning the sharded fleet's determinism contract: running a
// spec list on ThreadPool workers — one reused lane each, every worker
// claiming the next unclaimed spec — must produce output byte-identical
// to a serial fleet (and therefore to serial core::simulate) for any
// worker count, including failure surfacing (lowest-spec-index
// exception, original type) and per-lane isolation.  Identity is
// asserted on the same serialized currency the differential suite uses.
#include "fleet/fleet.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
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

/// An unschedulable two-task set under strict miss semantics: the
/// second task misses its first deadline, so the sim throws.  `tag`
/// names the tasks, so two such specs throw different messages.
fleet::SimSpec missing_spec(const std::string& tag) {
  sched::TaskSet tasks;
  tasks.add(sched::make_task("hog_" + tag, 100, 80.0));
  tasks.add(sched::make_task("late_" + tag, 100, 40.0));
  sched::assign_rate_monotonic(tasks);
  core::EngineOptions options;
  options.horizon = 1'000;
  options.seed = 3;
  return {std::move(tasks), power::ProcessorConfig::arm8_default(),
          core::SchedulerPolicy::fps(), nullptr, options};
}

/// An aggregator's full AUDIT_<name>.json text (samples included),
/// written into the test's temp directory and removed again.
std::string report_json(const audit::AuditAggregator& agg) {
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(setenv("LPFPS_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  const std::string path = agg.write_report();
  EXPECT_EQ(unsetenv("LPFPS_BENCH_JSON_DIR"), 0);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());
  return contents.str();
}

/// A 200-spec mixed batch: the sweep regime (RM-schedulable UUniFast
/// sets, both policies, stochastic execution, positional seeds) with a
/// faulted-and-contained sim and a cycle-eligible sim spliced into the
/// middle, so every worker count splits feature-bearing specs across
/// lanes too.
std::vector<fleet::SimSpec> make_mixed_specs() {
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  std::vector<fleet::SimSpec> specs;
  Rng rng(123);
  while (specs.size() < 198) {
    workloads::GeneratorConfig config;
    config.task_count = 4;
    config.total_utilization = 0.3 + 0.1 * (specs.size() % 5);
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 80'000;
    config.period_granularity = 10'000;
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    if (!sched::is_schedulable_rta(tasks)) continue;
    for (const auto& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      core::EngineOptions options;
      options.horizon = 100'000;
      options.seed = runner::derive_seed(77, specs.size());
      specs.push_back({tasks, cpu, policy, exec, options});
    }
  }
  // Faulted + contained, mid-list: overruns killed at budget with the
  // safe-mode fallback, misses recorded instead of thrown.
  {
    core::EngineOptions options;
    options.horizon = 400'000;
    options.seed = 7;
    options.throw_on_miss = false;
    options.faults.overruns = {{1.0, 0.4}};
    options.containment.on_overrun = faults::OverrunAction::kKill;
    options.containment.safe_mode_fallback = true;
    specs.insert(specs.begin() + 101,
                 {workloads::example_table1(), cpu,
                  core::SchedulerPolicy::lpfps(), exec, options});
  }
  // Cycle-eligible, mid-list: deterministic WCET execution over many
  // hyperperiods fast-forwards after two boundaries.
  {
    core::EngineOptions options;
    options.horizon = 4'000'000;
    options.seed = 11;
    specs.insert(specs.begin() + 50,
                 {workloads::example_table1(), cpu,
                  core::SchedulerPolicy::lpfps(), nullptr, options});
  }
  return specs;
}

TEST(FleetSharded, WorkerCountCannotChangeOutput) {
  const std::vector<fleet::SimSpec> specs = make_mixed_specs();
  ASSERT_EQ(specs.size(), 200u);

  const std::vector<core::SimulationResult> serial =
      fleet::run_fleet_sharded(specs, {}, 1);
  ASSERT_EQ(serial.size(), specs.size());
  {
    // Prove the batch exercises both feature paths.
    bool killed = false;
    bool cycled = false;
    for (const auto& result : serial) {
      killed = killed || result.jobs_killed > 0;
      cycled = cycled || result.cycles_detected > 0;
    }
    EXPECT_TRUE(killed);
    EXPECT_TRUE(cycled);
  }

  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const std::vector<core::SimulationResult> sharded =
        fleet::run_fleet_sharded(specs, {}, workers);
    ASSERT_EQ(sharded.size(), specs.size()) << workers << " workers";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(identity(specs[i].tasks, sharded[i]),
                identity(specs[i].tasks, serial[i]))
          << "sim " << i << " diverged at " << workers << " workers";
    }
  }
}

TEST(FleetSharded, IsolationUnderShardingCapturesFailuresPerLane) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  // An unschedulable set under strict miss semantics, mid-batch: its
  // lane throws; every other sim — on the same lane and on others —
  // must be untouched.
  const std::size_t failing = 120;
  {
    sched::TaskSet tasks;
    tasks.add(sched::make_task("hog", 100, 80.0));
    tasks.add(sched::make_task("late", 100, 40.0));
    sched::assign_rate_monotonic(tasks);
    core::EngineOptions options;
    options.horizon = 1'000;
    options.seed = 3;
    specs[failing] = {std::move(tasks), power::ProcessorConfig::arm8_default(),
                      core::SchedulerPolicy::fps(), nullptr, options};
  }

  const auto serial = fleet::run_fleet_sharded_isolated(specs, {}, 1);
  const auto sharded = fleet::run_fleet_sharded_isolated(specs, {}, 4);
  ASSERT_EQ(sharded.size(), specs.size());
  EXPECT_FALSE(sharded[failing].ok());
  EXPECT_NE(sharded[failing].error.find("deadline miss"), std::string::npos);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == failing) continue;
    ASSERT_TRUE(sharded[i].ok()) << "sim " << i << ": " << sharded[i].error;
    EXPECT_EQ(identity(specs[i].tasks, *sharded[i].result),
              identity(specs[i].tasks, *serial[i].result))
        << "healthy sim " << i << " perturbed under sharding";
  }

  // The non-isolated runner surfaces that same failure as the original
  // exception type, regardless of which lane runs it.
  EXPECT_THROW(fleet::run_fleet_sharded(specs, {}, 4), std::runtime_error);
}

TEST(FleetSharded, MoreWorkersThanSpecsLeavesNoEmptyShardArtifacts) {
  // 3 specs across 8 requested workers: the worker count clamps to the
  // spec count — no worker may emit, reorder, or drop results.
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(3);
  const std::vector<core::SimulationResult> serial =
      fleet::run_fleet_sharded(specs, {}, 1);
  const std::vector<core::SimulationResult> sharded =
      fleet::run_fleet_sharded(specs, {}, 8);
  ASSERT_EQ(sharded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, sharded[i]),
              identity(specs[i].tasks, serial[i]))
        << "sim " << i;
  }

  // Degenerate inputs: no specs at all.
  EXPECT_TRUE(fleet::run_fleet_sharded({}, {}, 4).empty());
  EXPECT_TRUE(fleet::run_fleet_sharded_isolated({}, {}, 4).empty());
}

/// Dynamic claiming under skew: one long spec first, short ones after
/// it, and mid-batch a spec that fails validation (it binds a lane like
/// any other spec and run() rejects it, as core::simulate does).  At 1,
/// 2 and 4 workers every result row and kept trace equals a fresh
/// core::simulate of its spec, the visitor sees every other index
/// exactly once, and the invalid spec fails with core::simulate's
/// exception type and message.
TEST(FleetSharded, SkewedBatchWithInvalidSpecMatchesFreshSimulate) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(48);
  for (std::size_t i = 0; i < specs.size(); i += 2) {
    specs[i].options.record_trace = true;
  }
  {
    // Stochastic execution, so no fast-forward: 40x a short spec's
    // horizon, all of it simulated.
    core::EngineOptions options;
    options.horizon = 4'000'000;
    options.seed = 5;
    specs.insert(specs.begin(),
                 {workloads::example_table1(),
                  power::ProcessorConfig::arm8_default(),
                  core::SchedulerPolicy::lpfps(),
                  std::make_shared<exec::ClampedGaussianModel>(), options});
  }
  const std::size_t invalid = 25;
  specs[invalid].options.release_jitter = {1.0};  // One entry, four tasks.
  ASSERT_NE(specs[invalid].tasks.size(), 1u);

  std::vector<std::string> fresh(specs.size());
  std::string want_type;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      fresh[i] = identity(
          specs[i].tasks,
          core::simulate(specs[i].tasks, specs[i].processor, specs[i].policy,
                         specs[i].exec_model, specs[i].options));
      EXPECT_NE(i, invalid) << "the invalid spec must throw";
    } catch (const std::exception& e) {
      ASSERT_EQ(i, invalid) << e.what();
      want_type = typeid(e).name();
      fresh[i] = e.what();
    }
  }
  ASSERT_NE(fresh[invalid].find("release_jitter"), std::string::npos);

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto outcomes = fleet::run_fleet_sharded_isolated(specs, {}, workers);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == invalid) {
        ASSERT_FALSE(outcomes[i].ok()) << workers << " workers";
        EXPECT_EQ(outcomes[i].error, fresh[i]) << workers << " workers";
        continue;
      }
      ASSERT_TRUE(outcomes[i].ok()) << "sim " << i << ": " << outcomes[i].error;
      EXPECT_EQ(identity(specs[i].tasks, *outcomes[i].result), fresh[i])
          << "sim " << i << " diverged at " << workers << " workers";
    }

    // The visitor drops every other trace back into its lane.
    std::vector<std::atomic<int>> seen(specs.size());
    std::vector<std::string> visited(specs.size());
    try {
      (void)fleet::run_fleet_sharded(
          specs, {}, workers,
          [&](std::size_t i, const fleet::SimSpec& spec,
              const core::SimulationResult& result) {
            ++seen[i];
            visited[i] = identity(spec.tasks, result);
            return i % 4 == 0;
          });
      ADD_FAILURE() << workers << " workers: no exception";
    } catch (const std::exception& e) {
      EXPECT_EQ(typeid(e).name(), want_type) << workers << " workers";
      EXPECT_EQ(e.what(), fresh[invalid]) << workers << " workers";
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(seen[i].load(), i == invalid ? 0 : 1)
          << "index " << i << " at " << workers << " workers";
      if (i != invalid) {
        EXPECT_EQ(visited[i], fresh[i])
            << "visited " << i << " at " << workers << " workers";
      }
    }
  }
}

/// The audited sharded entry point: zero violations across workers,
/// results identical to the audited serial fleet, traces dropped per
/// spec after auditing.
TEST(FleetSharded, AuditedShardedMatchesAuditedSerial) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(40);
  audit::AuditAggregator serial_agg("fleet_sharded_serial");
  const auto serial = audit::simulate_fleet_sharded(specs, {}, &serial_agg, 1);
  audit::AuditAggregator sharded_agg("fleet_sharded");
  const auto sharded =
      audit::simulate_fleet_sharded(specs, {}, &sharded_agg, 4);
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(identity(specs[i].tasks, sharded[i]),
              identity(specs[i].tasks, serial[i]))
        << "sim " << i;
    EXPECT_FALSE(sharded[i].trace.has_value());
  }
  EXPECT_EQ(sharded_agg.runs(), static_cast<std::int64_t>(specs.size()));
  EXPECT_EQ(sharded_agg.violation_count(), 0);
  EXPECT_NO_THROW(sharded_agg.check());
}

/// Two sims that throw, in different shards at 2 and 4 workers: every
/// worker count rethrows the lower index's exception, with the type and
/// message a serial core::simulate of that spec throws, and nothing
/// reaches the aggregator (a sim failure wins over the audit fold).
TEST(FleetShardedFold, LowestIndexSimFailureWinsAtEveryWorkerCount) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(40);
  specs[7] = missing_spec("first");
  specs[33] = missing_spec("second");

  std::string want_type;
  std::string want_what;
  try {
    (void)core::simulate(specs[7].tasks, specs[7].processor, specs[7].policy,
                         specs[7].exec_model, specs[7].options);
    FAIL() << "spec 7 must throw";
  } catch (const std::exception& e) {
    want_type = typeid(e).name();
    want_what = e.what();
  }
  ASSERT_NE(want_what.find("late_first"), std::string::npos);

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool aggregated : {false, true}) {
      audit::AuditAggregator agg("fleet_sharded_fold");
      try {
        (void)audit::simulate_fleet_sharded(specs, {},
                                            aggregated ? &agg : nullptr,
                                            workers);
        ADD_FAILURE() << workers << " workers: no exception";
      } catch (const std::exception& e) {
        EXPECT_EQ(typeid(e).name(), want_type) << workers << " workers";
        EXPECT_EQ(e.what(), want_what) << workers << " workers";
      }
      EXPECT_EQ(agg.runs(), 0) << workers << " workers";
    }
  }
}

/// The aggregator an audited sharded call feeds reads the same at every
/// worker count: the summary line and the whole AUDIT json.
TEST(FleetShardedFold, AggregatorIsIdenticalAcrossWorkerCounts) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(60);
  std::string want_line;
  std::string want_json;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    audit::AuditAggregator agg("fleet_sharded_fold");
    const auto results =
        audit::simulate_fleet_sharded(specs, {}, &agg, workers);
    ASSERT_EQ(results.size(), specs.size());
    EXPECT_EQ(agg.runs(), static_cast<std::int64_t>(specs.size()));
    if (workers == 1) {
      want_line = agg.summary_line();
      want_json = report_json(agg);
      EXPECT_NE(want_json.find("\"runs\":60"), std::string::npos);
      continue;
    }
    EXPECT_EQ(agg.summary_line(), want_line) << workers << " workers";
    EXPECT_EQ(report_json(agg), want_json) << workers << " workers";
  }
}

/// No real spec fails its audit, so violations are planted in the
/// lane-side reports of a real sharded run (the same visitor shape
/// simulate_fleet_sharded uses) and folded by fold_lane_audits: the
/// samples come out in spec order at every worker count, and without
/// an aggregator the lowest failing index throws.
TEST(FleetShardedFold, FoldKeepsSpecOrderForPlantedViolations) {
  std::vector<fleet::SimSpec> specs = make_mixed_specs();
  specs.resize(48);
  for (fleet::SimSpec& spec : specs) spec.options.record_trace = true;
  const std::vector<std::size_t> planted = {5, 17, 30, 46};

  const auto run = [&](std::size_t workers,
                       std::vector<core::SimulationResult>& results) {
    std::vector<audit::LaneAudit> audits(specs.size());
    results = fleet::run_fleet_sharded(
        specs, {}, workers,
        [&](std::size_t i, const fleet::SimSpec& spec,
            const core::SimulationResult& result) {
          audit::LaneAudit& lane = audits[i];
          lane.report = audit::audit_run(
              result, spec.tasks, spec.processor,
              audit::derive_options(spec.policy, spec.options));
          for (const std::size_t p : planted) {
            if (p != i) continue;
            lane.report.violations.push_back(
                {"X" + std::to_string(i), static_cast<Time>(i),
                 "planted at spec " + std::to_string(i)});
            lane.policy = spec.policy.name + "#" + std::to_string(i);
          }
          return false;
        });
    return audits;
  };

  std::string want_line;
  std::string want_json;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<core::SimulationResult> results;
    const std::vector<audit::LaneAudit> audits = run(workers, results);
    ASSERT_EQ(results.size(), specs.size());

    audit::AuditAggregator agg("fleet_sharded_planted");
    audit::fold_lane_audits(audits, results, &agg);
    EXPECT_EQ(agg.violation_count(),
              static_cast<std::int64_t>(planted.size()));
    const std::string json = report_json(agg);
    std::size_t at = 0;
    for (const std::size_t p : planted) {
      const std::size_t found =
          json.find("\"invariant\":\"X" + std::to_string(p) + "\"", at);
      ASSERT_NE(found, std::string::npos) << "sample " << p << " out of order";
      at = found;
    }
    if (workers == 1) {
      want_line = agg.summary_line();
      want_json = json;
    } else {
      EXPECT_EQ(agg.summary_line(), want_line) << workers << " workers";
      EXPECT_EQ(json, want_json) << workers << " workers";
    }

    try {
      audit::fold_lane_audits(audits, results, nullptr);
      ADD_FAILURE() << "planted violations must throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace audit failed for policy '" +
                          specs[5].policy.name + "#5'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("planted at spec 5"), std::string::npos) << what;
      EXPECT_EQ(what.find("planted at spec 17"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace lpfps
