#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "admission/service.h"
#include "admission/workload.h"
#include "audit/audit.h"
#include "audit/harness.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "exec/exec_model.h"
#include "fleet/fleet.h"
#include "power/processor.h"
#include "runner/runner.h"
#include "sched/analysis.h"
#include "workloads/generator.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace lpfps;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 9;

/// Digests of the default seed's pass 0, per workload.  A change to
/// the simulated or decided output moves them; so does any change to
/// the workload generators below.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> pinned = {
      {"paper_fig8", 0xc3bacc5a45aaac06ull},
      {"random_fleet", 0xd6699e300c0844c1ull},
      {"admission_churn", 0x70642ed34bbf8357ull},
      {"admission_revise", 0xebd42aaf3a81ee47ull},
  };
  return pinned;
}

/// One measured window: whole passes over the workload's inputs.
struct Window {
  void add_latency(double us) {
    latency_us.add(us);
    pass_latency_us.add(us);
  }

  double wall_s = 0.0;  ///< Sum of the passes' durations.
  std::int64_t ops = 0;
  std::size_t passes = 0;
  Histogram latency_us;
  /// Per pass: throughput (ops/s) and median latency.  Every pass runs
  /// the same inputs, so these are repeated measurements of one value.
  std::vector<double> pass_rates;
  std::vector<double> pass_p50_us;
  Histogram pass_latency_us;  ///< Current pass's samples.
};

/// Per-layer metric values by name; unset names report 0 (the layer is
/// bypassed by the workload).
class LayerValues {
 public:
  void set(const std::string& name, double value) {
    for (const Metric& m : per_layer_schema()) {
      if (m.name == name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("perfbench: unknown per-layer metric " + name);
  }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> values_;
};

double ratio_or_zero(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// One workload: set-up plus passes of units over the generated inputs.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  /// Builds every input from the seed and warms up.  Called several
  /// times; each call starts over and yields identical inputs.
  virtual void setup(Tracer* tracer) = 0;
  virtual std::size_t units_per_pass() const = 0;
  /// Runs unit `unit` of pass `pass`, recording ops, latency samples
  /// and failures.  Traced runs count deterministic work in pass 0.
  virtual void run_unit(std::size_t pass, std::size_t unit, Tracer* tracer,
                        Window& window) = 0;
  /// Called after each pass; the first pass 0 fixes the expected
  /// outputs every later repeat is compared against.
  virtual void end_pass(std::size_t pass) {
    if (pass == 0) recorded_ = true;
  }
  /// Checks after the measured windows (reference replays).
  virtual void verify(Tracer* tracer) { (void)tracer; }
  virtual void layer_metrics(const Tracer& tracer, const Window& traced,
                             LayerValues& out) const = 0;
  virtual void notes(std::vector<std::string>& out) const { (void)out; }

  const char* op_latency_label() const { return latency_label_; }
  std::uint64_t digest() const { return digest_; }
  Tally& tally() { return tally_; }

 protected:
  /// Compares `value` against slot `index` of `expected`, appending it
  /// instead while the first pass 0 is still being recorded.
  bool expect(std::vector<std::uint64_t>& expected, std::size_t index,
              std::uint64_t value) {
    if (!recorded_) {
      if (expected.size() <= index) expected.resize(index + 1, 0);
      expected[index] = value;
      return true;
    }
    return index < expected.size() && expected[index] == value;
  }

  std::uint64_t seed_;
  Tally tally_;
  std::uint64_t digest_ = 0;
  bool recorded_ = false;
  const char* latency_label_ = "op";
};

std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  core::FnvHasher d;
  for (const std::uint64_t v : digests) d.mix(v);
  return d.digest();
}

// ---------------------------------------------------------------------
// paper_fig8: the paper's Figure 8 grid, audited, serial.

class PaperFig8 final : public Workload {
 public:
  explicit PaperFig8(std::uint64_t seed) : Workload(seed) {
    latency_label_ = "audit::simulate call";
  }

  void setup(Tracer* tracer) override {
    apps_.clear();
    sets_.clear();
    horizons_.clear();
    {
      Scope s(tracer, Layer::kWorkloads, "paper_workloads");
      apps_ = workloads::paper_workloads();
    }
    for (const workloads::Workload& app : apps_) {
      bool schedulable = false;
      {
        Scope s(tracer, Layer::kSched, "is_schedulable_rta");
        schedulable = sched::is_schedulable_rta(app.tasks);
      }
      if (!schedulable) {
        throw std::runtime_error("paper_fig8: " + app.name +
                                 " is not RM-schedulable");
      }
      for (int r = 1; r <= kRatios; ++r) {
        Scope s(tracer, Layer::kWorkloads, "with_bcet_ratio");
        sets_.push_back(app.tasks.with_bcet_ratio(r / 10.0));
        horizons_.push_back(app.horizon);
      }
    }
    // Warm-up: each application under each policy once, at BCET = WCET.
    Scope s(tracer, Layer::kClient, "warm_up");
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      for (int p = 0; p < kPolicies; ++p) {
        core::EngineOptions options;
        options.horizon = apps_[a].horizon;
        audit::simulate(sets_[a * kRatios + kRatios - 1], cpu_, policies_[p],
                        exec_, options);
      }
    }
  }

  std::size_t units_per_pass() const override {
    return sets_.size() * kPolicies;
  }

  void run_unit(std::size_t pass, std::size_t unit, Tracer* tracer,
                Window& window) override {
    const std::size_t set = unit / kPolicies;
    const int policy = static_cast<int>(unit % kPolicies);
    // The three policies of one (application, BCET) point share a seed,
    // so they see identical execution times; each pass draws anew.
    core::EngineOptions options;
    options.horizon = horizons_[set];
    options.seed = runner::derive_seed(seed_, pass * sets_.size() + set);

    core::SimulationResult result;
    bool ok = true;
    const auto start = Clock::now();
    if (tracer == nullptr) {
      try {
        result = audit::simulate(sets_[set], cpu_, policies_[policy], exec_,
                                 options);
      } catch (const std::exception&) {
        ok = false;
      }
    } else {
      ok = run_traced(pass, unit, set, policy, options, tracer, result);
    }
    window.add_latency(seconds_since(start) * 1e6);
    ++window.ops;

    if (pass == 0) {
      if (ok) ok = expect(round0_, unit, result_digest(result));
      if (!recorded_) {
        round0_power_.resize(units_per_pass(), 0.0);
        round0_power_[unit] = result.average_power;
      }
    }
    tally_.record(ok);
  }

  void end_pass(std::size_t pass) override {
    if (pass == 0 && !recorded_) digest_ = fold(round0_);
    Workload::end_pass(pass);
  }

  void layer_metrics(const Tracer& tracer, const Window& traced,
                     LayerValues& out) const override {
    const LayerTimes main = self_times(tracer.spans(), false);
    const LayerTimes ref = self_times(tracer.spans(), true);
    const double passes = static_cast<double>(traced.passes);
    const double core_s = main.self(Layer::kCore);
    const double audit_s = main.self(Layer::kAudit);
    out.set("audit.self_s", audit_s / passes);
    out.set("audit.overhead_x", ratio_or_zero(core_s + audit_s, core_s));
    out.set("audit.segments_checked", static_cast<double>(segments_checked_));
    out.set("audit.plans_checked", static_cast<double>(plans_checked_));
    out.set("audit.violations", static_cast<double>(violations_));
    out.set("core.self_s", core_s / passes);
    out.set("core.events", static_cast<double>(events0_));
    static const char* const kEventMetrics[kPolicies] = {
        "core.ns_per_event.fps", "core.ns_per_event.lpfps",
        "core.ns_per_event.lpfps_opt"};
    for (int p = 0; p < kPolicies; ++p) {
      out.set(kEventMetrics[p],
              ratio_or_zero(static_cast<double>(core_ns_[p]),
                            static_cast<double>(events_[p])));
    }
    out.set("core.trace_segments", static_cast<double>(trace_segments_));
    out.set("core.ff_frac", ratio_or_zero(ff_time_, sim_time_));
    out.set("core.fingerprint_s", fingerprint_s_ / passes);
    out.set("power.ramp_segments", static_cast<double>(ramp_segments_));
    out.set("power.ramp_replay_s", ref.self(Layer::kPower));
  }

  void notes(std::vector<std::string>& out) const override {
    // The paper's headline: LPFPS vs FPS with every job at its WCET
    // (constant across the BCET axis), best over the BCET sweep.
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      if (apps_[a].name != "INS" || round0_power_.empty()) continue;
      const auto power = [&](int r, int p) {
        return round0_power_[(a * kRatios + static_cast<std::size_t>(r)) *
                                 kPolicies +
                             static_cast<std::size_t>(p)];
      };
      const double fps_wcet = power(kRatios - 1, 0);
      double best_heu = 0.0;
      double best_opt = 0.0;
      for (int r = 0; r < kRatios; ++r) {
        best_heu = std::max(best_heu, 100.0 * (1.0 - power(r, 1) / fps_wcet));
        best_opt = std::max(best_opt, 100.0 * (1.0 - power(r, 2) / fps_wcet));
      }
      char line[256];
      std::snprintf(line, sizeof(line),
                    "accuracy: INS best reduction vs FPS at WCET: LPFPS "
                    "%.1f%%, LPFPS-optimal %.1f%% (paper: up to 62%%)",
                    best_heu, best_opt);
      out.emplace_back(line);
    }
  }

 private:
  static constexpr int kRatios = 10;
  static constexpr int kPolicies = 3;

  bool run_traced(std::size_t pass, std::size_t unit, std::size_t set,
                  int policy, const core::EngineOptions& options,
                  Tracer* tracer, core::SimulationResult& result) {
    static const char* const kOps[kPolicies] = {
        "core::simulate/fps", "core::simulate/lpfps",
        "core::simulate/lpfps_opt"};
    const bool counting = pass == 0;
    Scope root(tracer, Layer::kClient, "cell", unit);
    try {
      // audit::simulate, split at its layer boundary: the engine run
      // with a recorded trace, then the audit of that trace.
      core::EngineOptions audited = options;
      audited.record_trace = true;
      std::int32_t core_span = 0;
      {
        Scope s(tracer, Layer::kCore, kOps[policy], unit);
        core_span = s.id();
        result = core::simulate(sets_[set], cpu_, policies_[policy], exec_,
                                audited);
      }
      core_ns_[policy] += tracer->elapsed_ns(core_span);
      events_[policy] += result.scheduler_invocations;
      fingerprint_s_ += result.fingerprint_seconds;
      audit::AuditReport report;
      {
        Scope s(tracer, Layer::kAudit, "audit_run", unit);
        report = audit::audit_run(
            result, sets_[set], cpu_,
            audit::derive_options(policies_[policy], options));
      }
      violations_ += static_cast<std::int64_t>(report.violations.size());
      if (counting) {
        segments_checked_ += report.segments_checked;
        plans_checked_ += report.plans_checked;
        events0_ += result.scheduler_invocations;
        trace_segments_ +=
            static_cast<std::int64_t>(result.trace->segments().size());
        ff_time_ += result.fast_forwarded_time;
        sim_time_ += result.simulated_time;
        replay_ramps(*result.trace, unit, tracer);
      }
      result.trace.reset();
      return report.ok();
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Reference replay: every ramp segment of the trace through
  /// PowerModel::ramp_energy, the integral the engine charges per ramp.
  void replay_ramps(const sim::Trace& trace, std::size_t unit,
                    Tracer* tracer) {
    Scope s(tracer, Layer::kPower, "ramp_energy", unit, true);
    Energy energy = 0.0;
    for (const sim::Segment& seg : trace.segments()) {
      if (seg.ratio_begin == seg.ratio_end) continue;
      energy += power_model_.ramp_energy(
          seg.ratio_begin, seg.ratio_end, cpu_.ramp_rate,
          seg.mode == sim::ProcessorMode::kRunning);
      ++ramp_segments_;
    }
    ramp_energy_sink_ += energy;
  }

  const power::ProcessorConfig cpu_ = power::ProcessorConfig::arm8_default();
  const power::PowerModel power_model_ = cpu_.make_power_model();
  const exec::ExecModelPtr exec_ =
      std::make_shared<exec::ClampedGaussianModel>();
  const core::SchedulerPolicy policies_[kPolicies] = {
      core::SchedulerPolicy::fps(), core::SchedulerPolicy::lpfps(),
      core::SchedulerPolicy::lpfps_optimal()};
  std::vector<workloads::Workload> apps_;
  std::vector<sched::TaskSet> sets_;
  std::vector<Time> horizons_;

  std::vector<std::uint64_t> round0_;
  std::vector<double> round0_power_;

  // Traced-window accounting: whole window...
  std::int64_t core_ns_[kPolicies] = {};
  std::int64_t events_[kPolicies] = {};
  double fingerprint_s_ = 0.0;
  std::int64_t violations_ = 0;
  // ...and pass 0 only (deterministic for a seed).
  std::int64_t events0_ = 0;
  std::int64_t segments_checked_ = 0;
  std::int64_t plans_checked_ = 0;
  std::int64_t trace_segments_ = 0;
  std::int64_t ramp_segments_ = 0;
  double ff_time_ = 0.0;
  double sim_time_ = 0.0;
  /// Keeps the replayed integrals observable, so the replay is not
  /// optimized away.
  Energy ramp_energy_sink_ = 0.0;
};

// ---------------------------------------------------------------------
// random_fleet: short UUniFast sims through the audited sharded fleet.

class RandomFleet final : public Workload {
 public:
  /// `weakly_hard_slice`: one spec in eight is an overloaded weakly-hard
  /// set with skip-aware DVS (README.md: the library fails on this
  /// slice, which keeps it out of the benchmarked `random_fleet`).
  RandomFleet(std::uint64_t seed, bool weakly_hard_slice)
      : Workload(seed), weakly_hard_slice_(weakly_hard_slice) {
    latency_label_ = "simulate_fleet_sharded call";
  }

  void setup(Tracer* tracer) override {
    pool_.clear();
    hard_only_.clear();
    pool_.reserve(kPool);
    const power::ProcessorConfig cpu = power::ProcessorConfig::arm8_default();
    const auto exec = std::make_shared<exec::ClampedGaussianModel>();
    for (std::size_t i = 0; i < kPool; ++i) {
      Rng rng(runner::derive_seed(seed_, i));
      fleet::SimSpec spec;
      spec.processor = cpu;
      spec.options.horizon = kHorizon;
      spec.options.seed = runner::derive_seed(seed_, kPool + i);
      const bool weakly_hard = weakly_hard_slice_ && i % 8 == 7;
      if (weakly_hard) {
        workloads::WeaklyHardGeneratorConfig config;
        config.base.task_count = 6;
        config.base.bcet_ratio = 1.0;
        config.total_utilization = rng.uniform(1.05, 1.25);
        config.weakly_hard_fraction = 0.67;
        const bool loose = (i / 8) % 2 == 0;
        config.mk_m = loose ? 1 : 2;
        config.mk_k = 3;
        config.skip_s = loose ? 2 : 3;
        {
          Scope s(tracer, Layer::kWorkloads, "generate_weakly_hard_task_set");
          spec.tasks = workloads::generate_weakly_hard_task_set(config, rng);
        }
        spec.policy = core::SchedulerPolicy::lpfps();
        spec.options.throw_on_miss = false;
        spec.options.weakly_hard.policy = weakly_hard::SkipPolicy::kOverload;
        spec.options.weakly_hard.skip_dvs = true;
      } else {
        workloads::GeneratorConfig config;
        config.task_count = static_cast<int>(rng.uniform_int(3, 10));
        config.total_utilization = rng.uniform(0.3, 0.9);
        config.bcet_ratio = 0.5;
        config.period_min = 10'000;
        config.period_max = 320'000;
        config.period_granularity = 10'000;
        for (;;) {
          {
            Scope s(tracer, Layer::kWorkloads, "generate_task_set");
            spec.tasks = workloads::generate_task_set(config, rng);
          }
          Scope s(tracer, Layer::kSched, "is_schedulable_rta");
          if (sched::is_schedulable_rta(spec.tasks)) break;
        }
        spec.policy = i % 2 == 0 ? core::SchedulerPolicy::fps()
                                 : core::SchedulerPolicy::lpfps();
        spec.exec_model = exec;
        if (i % 8 == 3) {
          // WCET overruns contained by budget kills and safe mode.
          spec.options.throw_on_miss = false;
          spec.options.faults.overruns = {{0.25, 0.25}};
          spec.options.containment.on_overrun = faults::OverrunAction::kKill;
          spec.options.containment.safe_mode_fallback = true;
        }
      }
      hard_only_.push_back(!weakly_hard);
      pool_.push_back(std::move(spec));
    }
    Scope s(tracer, Layer::kClient, "warm_up");
    audit::simulate_fleet_sharded(call_specs(0), fleet::FleetOptions{},
                                  nullptr, kWorkers);
  }

  std::size_t units_per_pass() const override { return kPool / kCall; }

  void run_unit(std::size_t pass, std::size_t unit, Tracer* tracer,
                Window& window) override {
    std::vector<fleet::SimSpec> specs = call_specs(unit);
    std::vector<core::SimulationResult> results;
    std::vector<bool> ok(kCall, true);
    const auto start = Clock::now();
    if (tracer == nullptr) {
      try {
        results = audit::simulate_fleet_sharded(
            std::move(specs), fleet::FleetOptions{}, nullptr, kWorkers);
      } catch (const std::exception&) {
        results.clear();
      }
    } else {
      run_traced(pass, unit, std::move(specs), tracer, results, ok);
    }
    window.add_latency(seconds_since(start) * 1e6);
    window.ops += static_cast<std::int64_t>(kCall);

    for (std::size_t i = 0; i < kCall; ++i) {
      const std::size_t index = unit * kCall + i;
      bool good = ok[i] && results.size() == kCall;
      if (good && hard_only_[index]) {
        good = results[i].deadline_misses == 0;
      }
      if (good) good = expect(expected_, index, result_digest(results[i]));
      tally_.record(good);
    }
  }

  void end_pass(std::size_t pass) override {
    if (pass == 0 && !recorded_) digest_ = fold(expected_);
    Workload::end_pass(pass);
  }

  void layer_metrics(const Tracer& tracer, const Window& traced,
                     LayerValues& out) const override {
    const LayerTimes main = self_times(tracer.spans(), false);
    const LayerTimes ref = self_times(tracer.spans(), true);
    const double passes = static_cast<double>(traced.passes);
    const double runner_s = main.self(Layer::kRunner);
    const double audit_s = main.self(Layer::kAudit);
    const double client_s = main.self(Layer::kClient);
    out.set("audit.self_s", audit_s / passes);
    out.set("audit.segments_checked", static_cast<double>(segments_checked_));
    out.set("audit.plans_checked", static_cast<double>(plans_checked_));
    out.set("audit.violations", static_cast<double>(violations_));
    out.set("core.events", static_cast<double>(events0_));
    out.set("core.trace_segments", static_cast<double>(trace_segments_));
    out.set("core.ff_frac", ratio_or_zero(ff_time_, sim_time_));
    // The fleet layer alone: the 1-worker replay of pass 0 runs every
    // FleetEngine on the calling thread, with no runner fan-out.
    const double fleet_s = ref.self(Layer::kFleet);
    out.set("fleet.self_s", fleet_s);
    out.set("fleet.speedup_x", ratio_or_zero(ref.self(Layer::kCore), fleet_s));
    out.set("runner.scaling_x", ratio_or_zero(fleet_s, runner_s / passes));
    out.set("runner.serial_tail_frac",
            ratio_or_zero(audit_s, runner_s + audit_s + client_s));
  }

 private:
  static constexpr std::size_t kPool = 2048;
  static constexpr std::size_t kCall = 256;
  static constexpr std::size_t kWorkers = 2;
  static constexpr Time kHorizon = 2e6;

  std::vector<fleet::SimSpec> call_specs(std::size_t unit) const {
    const auto first = pool_.begin() + static_cast<std::ptrdiff_t>(unit * kCall);
    return std::vector<fleet::SimSpec>(first,
                                       first + static_cast<std::ptrdiff_t>(kCall));
  }

  void run_traced(std::size_t pass, std::size_t unit,
                  std::vector<fleet::SimSpec> specs, Tracer* tracer,
                  std::vector<core::SimulationResult>& results,
                  std::vector<bool>& ok) {
    const bool counting = pass == 0;
    Scope root(tracer, Layer::kClient, "sweep", unit);
    // audit::simulate_fleet_sharded, split at its layer boundary: the
    // runner's 2-worker fan-out with recorded traces, then the serial
    // audit of every trace on the calling thread.
    for (fleet::SimSpec& spec : specs) spec.options.record_trace = true;
    std::vector<fleet::SimSpec> reference;
    if (counting) reference = specs;
    try {
      Scope s(tracer, Layer::kRunner, "run_fleet_sharded[2]", unit);
      results = fleet::run_fleet_sharded(std::move(specs),
                                         fleet::FleetOptions{}, kWorkers);
    } catch (const std::exception&) {
      results.clear();
      return;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const fleet::SimSpec& spec = pool_[unit * kCall + i];
      audit::AuditReport report;
      {
        Scope s(tracer, Layer::kAudit, "audit_run", unit);
        report = audit::audit_run(results[i], spec.tasks, spec.processor,
                                  audit::derive_options(spec.policy,
                                                        spec.options));
      }
      ok[i] = report.ok();
      violations_ += static_cast<std::int64_t>(report.violations.size());
      if (counting) {
        segments_checked_ += report.segments_checked;
        plans_checked_ += report.plans_checked;
        events0_ += results[i].scheduler_invocations;
        trace_segments_ +=
            static_cast<std::int64_t>(results[i].trace->segments().size());
        ff_time_ += results[i].fast_forwarded_time;
        sim_time_ += results[i].simulated_time;
      }
      results[i].trace.reset();
    }
    if (counting) replay_reference(unit, std::move(reference), tracer, results, ok);
  }

  /// Pass 0 only: the same specs through the fleet on one thread and
  /// through serial core::simulate.  Both must match the sharded run
  /// bit for bit (the fleet's contract).
  void replay_reference(std::size_t unit, std::vector<fleet::SimSpec> specs,
                        Tracer* tracer,
                        const std::vector<core::SimulationResult>& results,
                        std::vector<bool>& ok) {
    std::vector<core::SimulationResult> serial_fleet;
    try {
      Scope s(tracer, Layer::kFleet, "run_fleet_sharded[1]", unit, true);
      serial_fleet = fleet::run_fleet_sharded(specs, fleet::FleetOptions{}, 1);
    } catch (const std::exception&) {
      serial_fleet.clear();
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const fleet::SimSpec& spec = specs[i];
      core::SimulationResult serial;
      try {
        Scope s(tracer, Layer::kCore, "core::simulate", unit, true);
        serial = core::simulate(spec.tasks, spec.processor, spec.policy,
                                spec.exec_model, spec.options);
      } catch (const std::exception&) {
        ok[i] = false;
        continue;
      }
      const std::uint64_t want = result_digest(results[i]);
      if (serial_fleet.size() != specs.size() ||
          result_digest(serial_fleet[i]) != want ||
          result_digest(serial) != want) {
        ok[i] = false;
      }
    }
  }

  bool weakly_hard_slice_;
  std::vector<fleet::SimSpec> pool_;
  std::vector<bool> hard_only_;
  std::vector<std::uint64_t> expected_;

  std::int64_t violations_ = 0;
  std::int64_t events0_ = 0;
  std::int64_t segments_checked_ = 0;
  std::int64_t plans_checked_ = 0;
  std::int64_t trace_segments_ = 0;
  double ff_time_ = 0.0;
  double sim_time_ = 0.0;
};

// ---------------------------------------------------------------------
// Admission workloads: closed loops over AdmissionService::handle.

/// The default-shaped churn of the admission bench: arrivals sized like
/// residents, deadline-monotonic priority hints.
admission::ChurnConfig churn_for(int initial_tasks) {
  admission::ChurnConfig churn;
  churn.initial_tasks = initial_tasks;
  churn.initial_utilization = 0.45;
  churn.requests = 512;
  churn.task_utilization_min = 0.2 / initial_tasks;
  churn.task_utilization_max = 1.5 / initial_tasks;
  churn.deadline_monotonic_hints = true;
  return churn;
}

/// Measured-WCET revision churn: a stable set, rare arrivals and
/// departures, WCETs revised by a few percent.
admission::ChurnConfig stationary_churn_for(int initial_tasks) {
  admission::ChurnConfig churn = churn_for(initial_tasks);
  churn.initial_utilization = 0.55;
  churn.add_fraction = 0.02;
  churn.remove_fraction = 0.02;
  churn.relative_mutates = 1.0;
  churn.mutate_scale_min = 0.97;
  churn.mutate_scale_max = 1.03;
  return churn;
}

class AdmissionWorkload : public Workload {
 public:
  AdmissionWorkload(std::uint64_t seed, admission::ChurnConfig churn,
                    std::size_t streams)
      : Workload(seed),
        churn_(churn),
        stream_count_(streams) {
    latency_label_ = "AdmissionService::handle call";
  }

  void end_pass(std::size_t pass) override {
    if (pass == 0 && !recorded_) {
      std::vector<std::uint64_t> slots;
      for (const auto& slot : expected_) slots.push_back(fold(slot));
      digest_ = fold(slots);
    }
    Workload::end_pass(pass);
  }

  /// Every distinct stream replayed through a from-scratch service
  /// (ServiceConfig::incremental = false): each decision must match
  /// the measured path's bit for bit.
  void verify(Tracer* tracer) override {
    admission::ServiceConfig config;
    config.incremental = false;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      const admission::ChurnStream& stream = streams_[s];
      admission::AdmissionService service(stream.initial, config);
      std::size_t k = 0;
      for (const admission::ChurnOp& op : stream.ops) {
        const auto request = admission::resolve(op, service.tasks());
        if (!request.has_value()) continue;
        admission::Decision decision;
        {
          Scope span(tracer, Layer::kAdmission, "handle[scratch]", k, true);
          decision = service.handle(*request);
        }
        ++reference_decisions_;
        const std::uint64_t digest = decision_digest(decision);
        for (const std::size_t slot : slots_of_stream(s)) {
          if (k >= expected_[slot].size() || expected_[slot][k] != digest) {
            tally_.fail_after();
          }
        }
        ++k;
      }
    }
  }

  void layer_metrics(const Tracer& tracer, const Window& traced,
                     LayerValues& out) const override {
    const LayerTimes main = self_times(tracer.spans(), false);
    const LayerTimes ref = self_times(tracer.spans(), true);
    const double decisions = static_cast<double>(decisions0_);
    static const char* const kClass[3] = {"cache", "stationary", "search"};
    for (int c = 0; c < 3; ++c) {
      const std::string name = kClass[c];
      out.set("admission." + name + "_frac",
              ratio_or_zero(static_cast<double>(class_count_[c]), decisions));
      const Histogram& samples = class_us_[c];
      const auto tail = reportable_percentile(samples.count());
      out.set("admission.p50_us." + name,
              tail ? samples.percentile(50.0) : 0.0);
      out.set("admission.p99_us." + name,
              tail ? samples.percentile(std::min(99.0, *tail)) : 0.0);
    }
    out.set("admission.levels_probed", static_cast<double>(levels_probed_));
    out.set("admission.headroom_probes",
            static_cast<double>(headroom_probes_));
    // Mean from-scratch handle time over mean measured handle time.
    const double main_mean = ratio_or_zero(
        main.self(Layer::kAdmission),
        static_cast<double>(main.spans[static_cast<std::size_t>(
            Layer::kAdmission)]));
    const double ref_mean =
        ratio_or_zero(ref.self(Layer::kAdmission),
                      static_cast<double>(reference_decisions_));
    out.set("admission.scratch_x", ratio_or_zero(ref_mean, main_mean));
    out.set("sched.rta_tasks_reanalyzed", static_cast<double>(reanalyzed_));
    out.set("sched.rta_tasks_seeded", static_cast<double>(seeded_));
    out.set("sched.rta_kept_frac",
            ratio_or_zero(static_cast<double>(rta_kept_),
                          static_cast<double>(rta_kept_ + rta_reanalyzed_)));
    (void)traced;
  }

  void notes(std::vector<std::string>& out) const override {
    if (decisions0_ == 0) return;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "admission provenance (pass 0, %lld decisions): cache %lld, "
                  "stationary %lld, search %lld",
                  static_cast<long long>(decisions0_),
                  static_cast<long long>(class_count_[0]),
                  static_cast<long long>(class_count_[1]),
                  static_cast<long long>(class_count_[2]));
    out.emplace_back(line);
  }

 protected:
  void generate(Tracer* tracer) {
    streams_.clear();
    for (std::size_t s = 0; s < stream_count_; ++s) {
      Scope span(tracer, Layer::kWorkloads, "make_churn_stream");
      streams_.push_back(admission::make_churn_stream(
          churn_, runner::derive_seed(seed_, s)));
    }
  }

  /// The session slots that replay stream `s`.
  virtual std::vector<std::size_t> slots_of_stream(std::size_t s) const = 0;

  /// Handles one request, timed; checks it against the slot's record.
  bool handle(admission::AdmissionService& service,
              const admission::Request& request, std::size_t slot,
              std::size_t k, bool counting, Tracer* tracer, Window& window) {
    admission::Decision decision;
    double us = 0.0;
    if (tracer == nullptr) {
      const auto start = Clock::now();
      decision = service.handle(request);
      us = seconds_since(start) * 1e6;
    } else {
      std::int32_t id = 0;
      {
        Scope span(tracer, Layer::kAdmission, "handle", k);
        id = span.id();
        decision = service.handle(request);
      }
      us = static_cast<double>(tracer->elapsed_ns(id)) * 1e-3;
      const int c = decision.cache_hit ? 0 : decision.stationary ? 1 : 2;
      class_us_[c].add(us);
      if (counting) {
        ++decisions0_;
        ++class_count_[c];
        levels_probed_ += decision.levels_probed;
        headroom_probes_ += decision.headroom_probes;
        reanalyzed_ += decision.tasks_reanalyzed;
        seeded_ += decision.tasks_seeded;
      }
    }
    window.add_latency(us);
    ++window.ops;
    const bool ok = expect(expected_[slot], k, decision_digest(decision));
    tally_.record(ok);
    return ok;
  }

  void count_rta(const admission::AdmissionService& service) {
    rta_kept_ += service.rta_stats().tasks_kept;
    rta_reanalyzed_ += service.rta_stats().tasks_reanalyzed;
  }

  /// A throwaway session over the first requests of stream 0.
  void warm_up(const admission::ServiceConfig& config, Tracer* tracer) {
    Scope span(tracer, Layer::kClient, "warm_up");
    admission::AdmissionService service(streams_.front().initial, config);
    for (std::size_t i = 0; i < 64 && i < streams_.front().ops.size(); ++i) {
      const auto request =
          admission::resolve(streams_.front().ops[i], service.tasks());
      if (request.has_value()) service.handle(*request);
    }
  }

  admission::ChurnConfig churn_;
  std::size_t stream_count_;
  std::vector<admission::ChurnStream> streams_;
  /// Per session slot: the decision digests of the first pass 0.
  std::vector<std::vector<std::uint64_t>> expected_;

  Histogram class_us_[3];
  std::int64_t decisions0_ = 0;
  std::int64_t class_count_[3] = {};
  std::int64_t levels_probed_ = 0;
  std::int64_t headroom_probes_ = 0;
  std::int64_t reanalyzed_ = 0;
  std::int64_t seeded_ = 0;
  std::int64_t rta_kept_ = 0;
  std::int64_t rta_reanalyzed_ = 0;
  std::int64_t reference_decisions_ = 0;
};

/// admission_churn: one client, one default-config service per stream.
class AdmissionChurn final : public AdmissionWorkload {
 public:
  explicit AdmissionChurn(std::uint64_t seed)
      : AdmissionWorkload(seed, churn_for(50), kStreams) {
    expected_.assign(kStreams, {});
  }

  void setup(Tracer* tracer) override {
    generate(tracer);
    warm_up(admission::ServiceConfig{}, tracer);
  }

  std::size_t units_per_pass() const override { return streams_.size(); }

  void run_unit(std::size_t pass, std::size_t unit, Tracer* tracer,
                Window& window) override {
    const bool counting = tracer != nullptr && pass == 0;
    const admission::ChurnStream& stream = streams_[unit];
    Scope root(tracer, Layer::kClient, "session", unit);
    std::unique_ptr<admission::AdmissionService> service;
    {
      Scope span(tracer, Layer::kAdmission, "AdmissionService", unit);
      service = std::make_unique<admission::AdmissionService>(
          stream.initial, admission::ServiceConfig{});
    }
    std::size_t k = 0;
    for (const admission::ChurnOp& op : stream.ops) {
      const auto request = admission::resolve(op, service->tasks());
      if (!request.has_value()) continue;
      handle(*service, *request, unit, k++, counting, tracer, window);
    }
    if (counting) count_rta(*service);
  }

 private:
  static constexpr std::size_t kStreams = 64;

  std::vector<std::size_t> slots_of_stream(std::size_t s) const override {
    return {s};
  }
};

/// admission_revise: WCET-revision streams round-robin over 8 tenant
/// sessions sharing one SharedAdmissionCache; tenants t and t + 4 replay
/// the same stream, so half the requests repeat another's decision.
class AdmissionRevise final : public AdmissionWorkload {
 public:
  explicit AdmissionRevise(std::uint64_t seed)
      : AdmissionWorkload(seed, stationary_churn_for(40),
                          kGroups * kStreamsPerGroup) {
    expected_.assign(kGroups * kTenants, {});
  }

  void setup(Tracer* tracer) override {
    generate(tracer);
    admission::ServiceConfig config;
    config.shared_cache =
        std::make_shared<admission::SharedAdmissionCache>(kCacheCapacity);
    warm_up(config, tracer);
  }

  std::size_t units_per_pass() const override { return kGroups; }

  void run_unit(std::size_t pass, std::size_t unit, Tracer* tracer,
                Window& window) override {
    const bool counting = tracer != nullptr && pass == 0;
    Scope root(tracer, Layer::kClient, "tenant_group", unit);
    std::vector<std::unique_ptr<admission::AdmissionService>> tenants;
    {
      Scope span(tracer, Layer::kAdmission, "AdmissionService", unit);
      admission::ServiceConfig config;
      config.shared_cache =
          std::make_shared<admission::SharedAdmissionCache>(kCacheCapacity);
      for (std::size_t t = 0; t < kTenants; ++t) {
        tenants.push_back(std::make_unique<admission::AdmissionService>(
            stream_of(unit, t).initial, config));
      }
    }
    std::vector<std::size_t> k(kTenants, 0);
    std::size_t longest = 0;
    for (std::size_t t = 0; t < kTenants; ++t) {
      longest = std::max(longest, stream_of(unit, t).ops.size());
    }
    for (std::size_t i = 0; i < longest; ++i) {
      for (std::size_t t = 0; t < kTenants; ++t) {
        const admission::ChurnStream& stream = stream_of(unit, t);
        if (i >= stream.ops.size()) continue;
        const auto request =
            admission::resolve(stream.ops[i], tenants[t]->tasks());
        if (!request.has_value()) continue;
        handle(*tenants[t], *request, unit * kTenants + t, k[t]++, counting,
               tracer, window);
      }
    }
    if (counting) {
      for (const auto& tenant : tenants) count_rta(*tenant);
    }
  }

 private:
  static constexpr std::size_t kGroups = 16;
  static constexpr std::size_t kStreamsPerGroup = 4;
  static constexpr std::size_t kTenants = 8;
  static constexpr std::size_t kCacheCapacity = std::size_t{1} << 14;

  const admission::ChurnStream& stream_of(std::size_t group,
                                          std::size_t tenant) const {
    return streams_[group * kStreamsPerGroup + tenant % kStreamsPerGroup];
  }

  std::vector<std::size_t> slots_of_stream(std::size_t s) const override {
    const std::size_t group = s / kStreamsPerGroup;
    const std::size_t tenant = s % kStreamsPerGroup;
    return {group * kTenants + tenant,
            group * kTenants + tenant + kStreamsPerGroup};
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_fig8") return std::make_unique<PaperFig8>(seed);
  if (name == "random_fleet") {
    return std::make_unique<RandomFleet>(seed, false);
  }
  if (name == "random_fleet_weakly_hard") {
    return std::make_unique<RandomFleet>(seed, true);
  }
  if (name == "admission_churn") return std::make_unique<AdmissionChurn>(seed);
  if (name == "admission_revise") {
    return std::make_unique<AdmissionRevise>(seed);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// Whole passes until `seconds` have elapsed (at least one pass).
/// `between_passes` runs after each pass, outside the window's measured
/// time.
void run_window(Workload& workload, double seconds, Tracer* tracer,
                Window& window,
                const std::function<void(double elapsed_s)>& between_passes) {
  for (std::size_t pass = 0;; ++pass) {
    const auto pass_start = Clock::now();
    const std::int64_t ops_before = window.ops;
    for (std::size_t unit = 0; unit < workload.units_per_pass(); ++unit) {
      workload.run_unit(pass, unit, tracer, window);
    }
    workload.end_pass(pass);
    const double pass_s = seconds_since(pass_start);
    window.wall_s += pass_s;
    window.passes = pass + 1;
    window.pass_rates.push_back(
        static_cast<double>(window.ops - ops_before) / pass_s);
    window.pass_p50_us.push_back(window.pass_latency_us.percentile(50.0));
    window.pass_latency_us.clear();
    if (window.wall_s >= seconds) break;
    if (between_passes) between_passes(window.wall_s);
  }
}

/// Wall time of the top-level reference spans among spans [from, to):
/// kept out of the traced-vs-untraced overhead figure.
double reference_seconds(const Tracer& tracer, std::size_t from,
                         std::size_t to) {
  std::int64_t ns = 0;
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans[i];
    if (!s.reference) continue;
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].reference) {
      continue;
    }
    ns += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_fig8", "random_fleet", "admission_churn", "admission_revise"};
  return names;
}

const std::vector<Metric>& end_to_end_schema() {
  static const std::vector<Metric> schema = {
      {"ops_per_s", 0.0, "1/s"},
      {"setup_s", 0.0, "s"},
      {"peak_rss_mb", 0.0, "MiB"},
  };
  return schema;
}

const std::vector<Metric>& per_layer_schema() {
  static const std::vector<Metric> schema = {
      {"op_p50_us", 0.0, "us"},
      {"op_tail_us", 0.0, "us"},
      {"audit.self_s", 0.0, "s"},
      {"audit.overhead_x", 0.0, "x"},
      {"audit.segments_checked", 0.0, "count"},
      {"audit.plans_checked", 0.0, "count"},
      {"audit.violations", 0.0, "count"},
      {"core.self_s", 0.0, "s"},
      {"core.events", 0.0, "count"},
      {"core.ns_per_event.fps", 0.0, "ns"},
      {"core.ns_per_event.lpfps", 0.0, "ns"},
      {"core.ns_per_event.lpfps_opt", 0.0, "ns"},
      {"core.trace_segments", 0.0, "count"},
      {"core.ff_frac", 0.0, "frac"},
      {"core.fingerprint_s", 0.0, "s"},
      {"power.ramp_segments", 0.0, "count"},
      {"power.ramp_replay_s", 0.0, "s"},
      {"fleet.self_s", 0.0, "s"},
      {"fleet.speedup_x", 0.0, "x"},
      {"runner.scaling_x", 0.0, "x"},
      {"runner.serial_tail_frac", 0.0, "frac"},
      {"workloads.gen_s", 0.0, "s"},
      {"admission.cache_frac", 0.0, "frac"},
      {"admission.stationary_frac", 0.0, "frac"},
      {"admission.search_frac", 0.0, "frac"},
      {"admission.p50_us.cache", 0.0, "us"},
      {"admission.p50_us.stationary", 0.0, "us"},
      {"admission.p50_us.search", 0.0, "us"},
      {"admission.p99_us.cache", 0.0, "us"},
      {"admission.p99_us.stationary", 0.0, "us"},
      {"admission.p99_us.search", 0.0, "us"},
      {"admission.levels_probed", 0.0, "count"},
      {"admission.headroom_probes", 0.0, "count"},
      {"admission.scratch_x", 0.0, "x"},
      {"sched.rta_tasks_reanalyzed", 0.0, "count"},
      {"sched.rta_tasks_seeded", 0.0, "count"},
      {"sched.rta_kept_frac", 0.0, "frac"},
      {"client.self_s", 0.0, "s"},
      {"trace.overhead_frac", 0.0, "frac"},
  };
  return schema;
}

RunResult run(const RunConfig& config) {
  std::unique_ptr<Workload> workload = make_workload(config.workload,
                                                     config.seed);
  RunResult result;

  // Set-up, repeated; each repetition rebuilds identical inputs.  The
  // first runs before the windows (a traced run records its spans); the
  // others are spread over the untraced window, between passes, so one
  // slow or fast phase of the host does not set the median.
  std::vector<double> setup_times;
  const auto timed_setup = [&](Tracer* tracer) {
    const auto start = Clock::now();
    workload->setup(tracer);
    setup_times.push_back(seconds_since(start));
  };
  timed_setup(config.trace ? &result.tracer : nullptr);
  const double gen_s = config.trace
                           ? self_times(result.tracer.spans(), false)
                                 .self(Layer::kWorkloads)
                           : 0.0;
  const std::size_t setup_spans = result.tracer.spans().size();

  // A traced run splits its time between an untraced and a traced
  // window, so it lasts about as long as an untraced run.
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  Window window;
  run_window(*workload, window_s, nullptr, window,
             [&](double elapsed_s) {
               const double due = window_s *
                                  static_cast<double>(setup_times.size()) /
                                  kSetupReps;
               if (setup_times.size() < kSetupReps && elapsed_s >= due) {
                 timed_setup(nullptr);
               }
             });
  while (setup_times.size() < kSetupReps) timed_setup(nullptr);

  const double untraced_rate = static_cast<double>(window.ops) / window.wall_s;
  const std::size_t n = window.latency_us.count();
  const double tail_q = std::min(99.0, reportable_percentile(n).value_or(50.0));
  const double p50_us = median(window.pass_p50_us);
  const double tail_us = window.latency_us.percentile(tail_q);
  char note[256];
  std::snprintf(note, sizeof(note),
                "latency per %s: p50 %.6g us (median of per-pass medians), "
                "p%g %.6g us over %zu samples",
                workload->op_latency_label(), p50_us, tail_q, tail_us, n);
  result.notes.emplace_back(note);
  std::string rates = "pass rates (ops/s):";
  for (const double r : window.pass_rates) {
    std::snprintf(note, sizeof(note), " %.4g", r);
    rates += note;
  }
  result.notes.push_back(rates);
  std::string setups = "set-up times (s):";
  for (const double t : setup_times) {
    std::snprintf(note, sizeof(note), " %.4g", t);
    setups += note;
  }
  result.notes.push_back(setups);

  if (config.trace) {
    Window traced;
    run_window(*workload, window_s, &result.tracer, traced, nullptr);
    const std::size_t window_end = result.tracer.spans().size();
    workload->verify(&result.tracer);
    LayerValues values;
    workload->layer_metrics(result.tracer, traced, values);
    values.set("workloads.gen_s", gen_s);
    values.set("client.self_s",
               self_times(result.tracer.spans(), false, setup_spans)
                       .self(Layer::kClient) /
                   static_cast<double>(traced.passes));
    values.set("op_p50_us", p50_us);
    values.set("op_tail_us", tail_us);
    const double traced_rate =
        traced.ops /
        (traced.wall_s -
         reference_seconds(result.tracer, setup_spans, window_end));
    values.set("trace.overhead_frac", untraced_rate / traced_rate - 1.0);
    for (Metric m : per_layer_schema()) {
      m.value = values.get(m.name);
      result.metrics.push_back(m);
    }
  } else {
    workload->verify(nullptr);
    result.metrics = end_to_end_schema();
    result.metrics[0].value = untraced_rate;
    result.metrics[1].value = median(setup_times);
    result.metrics[2].value = peak_rss_mb();
  }

  workload->notes(result.notes);
  result.tally = workload->tally();
  result.digest = workload->digest();
  const auto pinned = pinned_digests().find(config.workload);
  if (config.seed == kDefaultSeed && pinned != pinned_digests().end()) {
    result.digest_pinned = true;
    result.digest_ok = result.digest == pinned->second;
  }
  return result;
}

}  // namespace perfbench
