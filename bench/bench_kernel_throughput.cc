// Kernel-throughput baseline — the perf trajectory's yardstick.
//
// Drives every registered workload (Table 2) under every parameterless
// engine policy plus synthetic 50/100-task UUniFast sets for fixed
// simulated horizons, and reports raw simulation throughput: scheduler
// events per wall-clock second and nanoseconds per event.  A third
// section stresses sim::EventQueue directly with the random
// push/cancel/pop mix the engine's tentative-completion pattern
// produces, so queue-level changes are visible in isolation.  A fourth
// section runs the deterministic (WCET) model over 12 hyperperiods with
// steady-state cycle detection on and off, so the fast-forward speedup
// is tracked — and gated — like any other throughput number.  A fifth
// section measures the fleet engine (docs/FLEET.md): aggregate
// events/sec across a pool of small UUniFast sims, run once as a serial
// core::simulate-per-spec loop (the status quo) and once through one
// FleetEngine reusing its lane — the speedup the fleet is gated on.
//
// Emits BENCH_kernel_throughput.json; CI's perf-smoke job diffs the
// events/sec columns against bench/baseline_kernel_throughput.json and
// fails on a >25% regression (see docs/PERFORMANCE.md for the
// tolerance rationale and how to refresh the baseline).
//
// With LPFPS_FLEET set, the synthetic UUniFast section additionally
// routes its measured runs through a single-lane fleet engine instead
// of core::simulate (bit-identical results; the measured cost gains the
// fleet's dispatch overhead, which this bench exists to observe).
//
// Timing methodology: each point is run once to size a repetition count
// that fills ~kMinWall of wall time, then re-run that many times under
// one timer — robust against clock granularity without letting the
// bench crawl in Debug/sanitizer smoke runs, where a single run is
// slower and the rep count shrinks automatically.  With LPFPS_AUDIT=1
// each engine point additionally runs once through audit::simulate
// (untimed) so the throughput numbers stay tied to a verified schedule.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/harness.h"
#include "common/random.h"
#include "core/engine.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "io/bench_json.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "sim/event_queue.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace {

using namespace lpfps;

constexpr double kMinWall = 0.1;  ///< Seconds of timed work per point.

struct Throughput {
  std::int64_t events_per_run = 0;
  int reps = 1;
  double wall_seconds = 0.0;

  std::int64_t total_events() const { return events_per_run * reps; }
  double events_per_sec() const {
    return wall_seconds > 0.0 ? total_events() / wall_seconds : 0.0;
  }
  double ns_per_event() const {
    return total_events() > 0 ? wall_seconds * 1e9 / total_events() : 0.0;
  }
};

/// Times `run_once` (returning its event count, which must be identical
/// across calls — simulations are deterministic) with an adaptive
/// repetition count.
template <typename Fn>
Throughput measure(Fn run_once) {
  Throughput t;
  const io::WallTimer probe;
  t.events_per_run = run_once();
  const double once = probe.seconds();
  t.reps = once < kMinWall
               ? static_cast<int>(std::ceil(kMinWall / (once > 1e-6 ? once : 1e-6)))
               : 1;
  const io::WallTimer timer;
  for (int i = 0; i < t.reps; ++i) {
    const std::int64_t events = run_once();
    if (events != t.events_per_run) {
      std::fprintf(stderr, "non-deterministic event count: %lld vs %lld\n",
                   static_cast<long long>(events),
                   static_cast<long long>(t.events_per_run));
      std::abort();
    }
  }
  t.wall_seconds = timer.seconds();
  return t;
}

/// Steady-state fast-forward statistics of one representative run; the
/// same fields SimulationResult carries, captured per bench point so the
/// JSON record shows whether a point's throughput came from full
/// simulation or from cycle replay.
struct CycleStats {
  std::int64_t cycles_detected = 0;
  Time fast_forwarded_us = 0.0;
  std::int64_t fingerprint_checks = 0;
  double fingerprint_seconds = 0.0;

  static CycleStats of(const core::SimulationResult& result) {
    return {result.cycles_detected, result.fast_forwarded_time,
            result.fingerprint_checks, result.fingerprint_seconds};
  }
};

void print_row(const std::string& section, const std::string& name,
               const std::string& policy, const Throughput& t,
               const CycleStats& cycle) {
  std::printf("%-12s %-16s %-18s %10lld %5d %8.3f %14.0f %10.1f %6lld\n",
              section.c_str(), name.c_str(), policy.c_str(),
              static_cast<long long>(t.total_events()), t.reps,
              t.wall_seconds, t.events_per_sec(), t.ns_per_event(),
              static_cast<long long>(cycle.cycles_detected));
}

void add_point(io::BenchJsonWriter& json, const std::string& section,
               const std::string& name, const std::string& policy,
               const Throughput& t, const CycleStats& cycle) {
  json.add_point()
      .set("section", section)
      .set("name", name)
      .set("policy", policy)
      .set("events", t.total_events())
      .set("reps", t.reps)
      .set("wall_seconds", t.wall_seconds)
      .set("events_per_sec", t.events_per_sec())
      .set("ns_per_event", t.ns_per_event())
      .set("cycles_detected", cycle.cycles_detected)
      .set("fast_forwarded_us", cycle.fast_forwarded_us)
      .set("fingerprint_checks", cycle.fingerprint_checks)
      .set("fingerprint_seconds", cycle.fingerprint_seconds);
}

std::vector<core::SchedulerPolicy> bench_policies() {
  return {
      core::SchedulerPolicy::fps(),
      core::SchedulerPolicy::fps_timeout_shutdown(500.0),
      core::SchedulerPolicy::lpfps(),
      core::SchedulerPolicy::lpfps_optimal(),
      core::SchedulerPolicy::lpfps_powerdown_only(),
      core::SchedulerPolicy::lpfps_dvs_only(),
  };
}

/// Pre-drawn randomness for the event-queue stress, generated outside
/// the timed region so the measurement is queue cost, not mt19937 cost.
/// One row per op: the op selector, a push time offset, a push priority,
/// and a raw pick index (reduced modulo the live pool size at use time).
struct OpTape {
  std::vector<double> selector;
  std::vector<double> time_offset;
  std::vector<std::int32_t> priority;
  std::vector<std::uint32_t> pick;
};

OpTape make_op_tape(std::uint64_t seed, int op_budget) {
  Rng rng(seed);
  OpTape tape;
  tape.selector.reserve(static_cast<std::size_t>(op_budget));
  tape.time_offset.reserve(static_cast<std::size_t>(op_budget));
  tape.priority.reserve(static_cast<std::size_t>(op_budget));
  tape.pick.reserve(static_cast<std::size_t>(op_budget));
  for (int i = 0; i < op_budget; ++i) {
    tape.selector.push_back(rng.uniform(0.0, 1.0));
    tape.time_offset.push_back(rng.uniform(0.0, 100.0));
    tape.priority.push_back(
        static_cast<std::int32_t>(rng.uniform_int(0, 3)));
    tape.pick.push_back(static_cast<std::uint32_t>(
        rng.uniform_int(0, 0x7fffffff)));
  }
  return tape;
}

/// The engine's event pattern against the queue in isolation: pushes of
/// releases and tentative completions, cancellations of stale
/// completions, pops in time order, at a *stationary* queue depth —
/// the engine keeps only a handful of pending events (one release per
/// task, a tentative completion, a ramp, the end marker), so the
/// representative regime is a bounded heap, not unbounded growth.  The
/// mix refills below depth_cap/2 and drains above it, oscillating
/// around half-full.  Returns the op count (constant for a given tape,
/// so `measure` can check determinism — the branch taken per step
/// depends only on the tape and the queue's observable state, which any
/// correct implementation reproduces identically).
std::int64_t run_event_queue_mix(const OpTape& tape,
                                 std::size_t depth_cap) {
  sim::EventQueue queue;
  queue.reserve(depth_cap + 1);
  std::vector<sim::EventId> cancellable;
  Time now = 0.0;
  std::int64_t ops = 0;
  const int op_budget = static_cast<int>(tape.selector.size());
  for (int i = 0; i < op_budget; ++i) {
    const double r = tape.selector[static_cast<std::size_t>(i)];
    if (queue.size() < depth_cap / 2 ||
        (r < 0.45 && queue.size() < depth_cap)) {
      sim::Event event;
      event.time = now + tape.time_offset[static_cast<std::size_t>(i)];
      event.kind = sim::EventKind::kCompletion;
      event.payload = static_cast<std::int32_t>(i & 0xff);
      event.priority = tape.priority[static_cast<std::size_t>(i)];
      cancellable.push_back(queue.push(event));
      // The engine holds at most a handful of cancellable ids at a
      // time; a bounded pool keeps cancel() hitting both live and
      // already-popped ids, like stale tentative completions do.
      if (cancellable.size() > 64) {
        cancellable.erase(cancellable.begin(),
                          cancellable.begin() + 32);
      }
    } else if (r < 0.70 && !cancellable.empty()) {
      const std::size_t pick =
          tape.pick[static_cast<std::size_t>(i)] % cancellable.size();
      queue.cancel(cancellable[pick]);
      cancellable[pick] = cancellable.back();
      cancellable.pop_back();
    } else if (!queue.empty()) {
      const sim::Event event = queue.pop();
      if (event.time > now) now = event.time;
    }
    ++ops;
  }
  while (!queue.empty()) {
    queue.pop();
    ++ops;
  }
  return ops;
}

}  // namespace

int main() {
  const io::WallTimer total;
  io::BenchJsonWriter json("kernel_throughput");
  audit::AuditAggregator agg("kernel_throughput");
  const auto cpu = power::ProcessorConfig::arm8_default();
  const auto exec = std::make_shared<exec::ClampedGaussianModel>();
  const std::uint64_t kSeed = 7;
  const Time kHorizonCap = 1e6;
  // One LPFPS_CYCLE read for the whole bench, baked into every
  // EngineOptions below — the engine otherwise re-reads the
  // environment at each measured run's begin(), once per width point
  // in the fleet sections, and runs started at different times could
  // in principle disagree about the gate mid-bench.
  const bool cycle_env = core::cycle_detection_env_enabled();
  json.meta()
      .set("seed", kSeed)
      .set("horizon_cap_us", kHorizonCap)
      .set("min_wall_seconds", kMinWall)
      .set("audited", audit::enabled());

  std::printf("%-12s %-16s %-18s %10s %5s %8s %14s %10s %6s\n", "section",
              "name", "policy", "events", "reps", "wall_s", "events/sec",
              "ns/event", "cycles");

  // ---- Section 1: the paper's registered workloads. --------------------
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const sched::TaskSet tasks = w.tasks.with_bcet_ratio(0.5);
    core::EngineOptions options;
    options.horizon = std::min(w.horizon, kHorizonCap);
    options.seed = kSeed;
    options.cycle_detection = cycle_env;
    for (const core::SchedulerPolicy& policy : bench_policies()) {
      if (audit::enabled()) {
        (void)audit::simulate(tasks, cpu, policy, exec, options, &agg);
      }
      CycleStats cycle;
      const Throughput t = measure([&] {
        const core::SimulationResult result =
            core::simulate(tasks, cpu, policy, exec, options);
        cycle = CycleStats::of(result);
        return static_cast<std::int64_t>(result.scheduler_invocations);
      });
      print_row("workload", w.name, policy.name, t, cycle);
      add_point(json, "workload", w.name, policy.name, t, cycle);
    }
  }

  // ---- Section 2: synthetic 50/100-task UUniFast sets. -----------------
  for (const int task_count : {50, 100}) {
    workloads::GeneratorConfig config;
    config.task_count = task_count;
    config.total_utilization = 0.5;
    config.bcet_ratio = 0.5;
    Rng rng(2024);
    sched::TaskSet tasks = workloads::generate_task_set(config, rng);
    while (!sched::is_schedulable_rta(tasks)) {
      tasks = workloads::generate_task_set(config, rng);
    }
    core::EngineOptions options;
    options.horizon = kHorizonCap;
    options.seed = kSeed;
    options.cycle_detection = cycle_env;
    const std::string name = "uunifast-" + std::to_string(task_count);
    for (const core::SchedulerPolicy& policy :
         {core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps()}) {
      if (audit::enabled()) {
        (void)audit::simulate(tasks, cpu, policy, exec, options, &agg);
      }
      CycleStats cycle;
      const Throughput t = measure([&] {
        core::SimulationResult result;
        if (fleet::enabled()) {
          // Routed through a single-lane fleet batch (bit-identical).
          std::vector<fleet::SimSpec> specs;
          specs.push_back({tasks, cpu, policy, exec, options});
          result = std::move(
              fleet::run_fleet(std::move(specs), fleet::FleetOptions{})[0]);
        } else {
          result = core::simulate(tasks, cpu, policy, exec, options);
        }
        cycle = CycleStats::of(result);
        return static_cast<std::int64_t>(result.scheduler_invocations);
      });
      print_row("synthetic", name, policy.name, t, cycle);
      add_point(json, "synthetic", name, policy.name, t, cycle);
    }
  }

  // ---- Section 3: the event queue in isolation. ------------------------
  // Two stationary depth regimes: engine-like (tens of pending events)
  // and a deep-heap stress.  400k tape ops each.
  for (const std::size_t depth : {std::size_t{64}, std::size_t{8192}}) {
    const OpTape tape = make_op_tape(42, 400000);
    const Throughput t =
        measure([&tape, depth] { return run_event_queue_mix(tape, depth); });
    const std::string name = "mix-depth-" + std::to_string(depth);
    print_row("event_queue", name, "-", t, {});
    add_point(json, "event_queue", name, "-", t, {});
  }

  // ---- Section 4: steady-state fast-forward (deterministic model). -----
  // WCET execution is exactly periodic, so after two simulated
  // hyperperiods the engine fingerprints a repeat and replays the rest
  // of the 12-hyperperiod horizon.  events_per_sec here is *effective*
  // throughput (extrapolated events over replay-path wall time); the
  // "/off" twin simulates the full horizon, so the pair pins the
  // speedup and the perf gate catches a silently-disarmed detector.
  for (const workloads::Workload& w : workloads::paper_workloads()) {
    const Time hyper = static_cast<Time>(w.tasks.hyperperiod());
    core::EngineOptions on;
    on.horizon = 12.0 * hyper;
    on.seed = kSeed;
    on.cycle_detection = cycle_env;
    core::EngineOptions off = on;
    off.cycle_detection = false;
    const core::SchedulerPolicy policy = core::SchedulerPolicy::lpfps();
    if (audit::enabled()) {
      (void)audit::simulate(w.tasks, cpu, policy, nullptr, on, &agg);
    }
    CycleStats cycle;
    const Throughput fast = measure([&] {
      const core::SimulationResult result =
          core::simulate(w.tasks, cpu, policy, nullptr, on);
      cycle = CycleStats::of(result);
      return static_cast<std::int64_t>(result.scheduler_invocations);
    });
    const Throughput full = measure([&] {
      const core::SimulationResult result =
          core::simulate(w.tasks, cpu, policy, nullptr, off);
      return static_cast<std::int64_t>(result.scheduler_invocations);
    });
    print_row("cycle", w.name, policy.name, fast, cycle);
    add_point(json, "cycle", w.name, policy.name, fast, cycle);
    print_row("cycle", w.name, policy.name + "/off", full, {});
    add_point(json, "cycle", w.name, policy.name + "/off", full, {});
    std::printf("%-12s %-16s speedup x%.1f (%lld cycles replayed)\n",
                "cycle", w.name.c_str(),
                full.ns_per_event() > 0.0
                    ? fast.events_per_sec() / full.events_per_sec()
                    : 0.0,
                static_cast<long long>(cycle.cycles_detected));
  }

  // ---- Section 5: fleet aggregate (docs/FLEET.md). ---------------------
  // A pool of small RM-feasible 5-task UUniFast sims — the sweep regime
  // where per-sim fixed cost (engine copies, buffer allocation, RNG
  // seeding) rivals the event work.  "serial" runs core::simulate per
  // spec (fresh engine and buffers each time); "lanes" runs the pool
  // through one FleetEngine, paying construction once and rebinding its
  // lane thereafter.  Results are bit-identical, so events/run is
  // constant and the events/sec column isolates the setup cost the
  // fleet amortizes.  Both rows are perf-gated like every other row.
  {
    const std::size_t kFleetSims = 1024;
    std::vector<fleet::SimSpec> specs;
    specs.reserve(kFleetSims);
    Rng fleet_rng(2024);
    workloads::GeneratorConfig config;
    config.task_count = 5;
    config.total_utilization = 0.5;
    config.bcet_ratio = 0.5;
    config.period_min = 10'000;
    config.period_max = 320'000;
    config.period_granularity = 10'000;
    while (specs.size() < kFleetSims) {
      sched::TaskSet tasks = workloads::generate_task_set(config, fleet_rng);
      if (!sched::is_schedulable_rta(tasks)) continue;
      core::EngineOptions options;
      options.horizon = 10'000;
      options.seed = runner::derive_seed(kSeed, specs.size());
      options.cycle_detection = cycle_env;
      const core::SchedulerPolicy policy = specs.size() % 2 == 0
                                               ? core::SchedulerPolicy::fps()
                                               : core::SchedulerPolicy::lpfps();
      specs.push_back({std::move(tasks), cpu, policy, exec, options});
    }
    if (audit::enabled()) {
      // One untimed audited pass over the pool ties the throughput
      // numbers to verified schedules, like every other section.
      (void)audit::simulate_fleet(specs, fleet::FleetOptions{}, &agg);
    }
    const auto serial = [&specs] {
      std::int64_t events = 0;
      for (const fleet::SimSpec& spec : specs) {
        events += core::simulate(spec.tasks, spec.processor, spec.policy,
                                 spec.exec_model, spec.options)
                      .scheduler_invocations;
      }
      return events;
    };
    fleet::FleetEngine engine;
    for (const fleet::SimSpec& spec : specs) engine.add(spec);
    const auto lanes = [&engine] {
      std::int64_t events = 0;
      for (const core::SimulationResult& result : engine.run_all()) {
        events += result.scheduler_invocations;
      }
      return events;
    };
    const Throughput serial_t = measure(serial);
    const Throughput lanes_t = measure(lanes);
    print_row("fleet", "serial", "fps+lpfps", serial_t, {});
    add_point(json, "fleet", "serial", "fps+lpfps", serial_t, {});
    print_row("fleet", "lanes", "fps+lpfps", lanes_t, {});
    add_point(json, "fleet", "lanes", "fps+lpfps", lanes_t, {});
    std::printf("%-12s %-16s lane speedup x%.2f (lanes vs serial, %zu sims)\n",
                "fleet", "scaling",
                serial_t.events_per_sec() > 0.0
                    ? lanes_t.events_per_sec() / serial_t.events_per_sec()
                    : 0.0,
                kFleetSims);
  }

  if (audit::enabled()) {
    std::printf("%s\n", agg.summary_line().c_str());
    agg.write_report();
    agg.check();
  }
  json.set_wall_time_seconds(total.seconds());
  const std::string path = json.write();
  if (!path.empty()) std::printf("bench json: %s\n", path.c_str());
  return 0;
}
