// Method bodies of core::SimState — the engine main loop, moved here
// verbatim from engine.cc so the fleet engine can reuse one state across
// simulations (see sim_state.h for the contract).  Engine::run delegates to
// SimState::run, so this file *is* the reference simulation semantics.
#include "core/sim_state.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_compare.h"
#include "core/speed_ratio.h"
#include "power/speed_profile.h"
#include "sched/analysis.h"

namespace lpfps::core {

using namespace detail;

namespace {

}  // namespace

/// LPFPS_CYCLE=0/off/false force-disables steady-state fast-forward
/// regardless of EngineOptions::cycle_detection (the same convention the
/// audit layer uses for LPFPS_AUDIT).
bool cycle_detection_env_enabled() {
  const char* value = std::getenv("LPFPS_CYCLE");
  if (value == nullptr) return true;
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "false") != 0;
}

namespace {


/// The begin() validation bundle, shared with SimState::prepare so the
/// fleet's hoisted checks are exactly the per-run ones.
void validate_spec(const sched::TaskSet& tasks,
                   const power::ProcessorConfig& processor,
                   const SchedulerPolicy& policy,
                   const EngineOptions& options) {
  LPFPS_CHECK(options.horizon > 0.0);
  LPFPS_CHECK(options.context_switch_cost >= 0.0);
  LPFPS_CHECK_MSG(options.release_jitter.empty() ||
                      options.release_jitter.size() == tasks.size(),
                  "release_jitter must have one entry per task");
  for (const Time j : options.release_jitter) LPFPS_CHECK(j >= 0.0);
  LPFPS_CHECK(options.timer_granularity >= 0.0);
  options.faults.validate(tasks.size());
  options.containment.validate();
  tasks.validate();
  processor.validate();
  policy.validate();
  if (tasks.has_weakly_hard() &&
      options.weakly_hard.policy != weakly_hard::SkipPolicy::kNever) {
    // Throttling resumes a job across enforcement windows, settling its
    // forfeited windows out of instance order — the governor's history
    // masks (and the auditor's replay) require in-order settlement.
    // Throttling *is* already a weakly-hard degradation mechanism; use
    // kill containment alongside the governor instead.
    LPFPS_CHECK_MSG(
        options.containment.on_overrun != faults::OverrunAction::kThrottle,
        "throttle containment cannot combine with the weakly-hard governor");
  }
}

/// Hard RTA verdict for the structural overload latch: a set that cannot
/// meet every deadline even at full speed is in permanent overload, so
/// the governor degrades from t = 0.  Sets outside the RTA's D <= T
/// domain fall back to the utilization test alone (the dynamic latch
/// still covers them at run time).
bool hard_rta_schedulable(const sched::TaskSet& tasks) {
  if (tasks.utilization() > 1.0) return false;
  for (const sched::Task& t : tasks.tasks()) {
    if (t.deadline > t.period) return true;
  }
  return sched::is_schedulable_rta(tasks);
}

/// The spec-fixed cycle-eligibility gates of setup_cycle_detection (the
/// LPFPS_CYCLE env gate stays at run time): returns the hyperperiod when
/// the spec qualifies, 0 when it does not.  Gate rationale lives at the
/// call site in setup_cycle_detection.
std::int64_t eligible_cycle_hyperperiod(const sched::TaskSet& tasks,
                                        const exec::ExecModelPtr& exec_model,
                                        const EngineOptions& options) {
  if (!options.cycle_detection) return 0;
  if (options.faults.any() || options.containment.enabled()) return 0;
  // The governor's skip history (window masks, overload latch) is not
  // part of the boundary fingerprint, so armed runs must not fast-forward.
  if (tasks.has_weakly_hard() &&
      options.weakly_hard.policy != weakly_hard::SkipPolicy::kNever) {
    return 0;
  }
  for (const Time j : options.release_jitter) {
    if (j > 0.0) return 0;
  }
  if (options.timer_granularity > 0.0) return 0;
  if (options.invocation_hook) return 0;
  if (exec_model != nullptr && exec_model->name() == "trace") return 0;
  std::int64_t hyper = 0;
  try {
    hyper = tasks.hyperperiod();
  } catch (const std::overflow_error&) {
    return 0;  // Mutually-prime periods: no cycle within 64 bits.
  }
  if (hyper <= 0) return 0;
  if (hyper > (std::int64_t{1} << 52)) return 0;
  if (2.0 * static_cast<Time>(hyper) > options.horizon) return 0;
  return hyper;
}

}  // namespace

SimState::SimState(const sched::TaskSet& tasks,
                   const power::ProcessorConfig& processor,
                   const SchedulerPolicy& policy,
                   const exec::ExecModelPtr& exec_model,
                   const EngineOptions& options,
                   const std::mt19937_64* rng_state) {
  reset(tasks, processor, policy, exec_model, options, rng_state);
}

void SimState::reset(const sched::TaskSet& tasks,
                     const power::ProcessorConfig& processor,
                     const SchedulerPolicy& policy,
                     const exec::ExecModelPtr& exec_model,
                     const EngineOptions& options,
                     const std::mt19937_64* rng_state) {
  tasks_ = &tasks;
  processor_ = &processor;
  policy_ = &policy;
  exec_model_ = exec_model;
  options_ = &options;

  // Rng::reseed is bit-identical to fresh construction (see random.h),
  // and the optional re-emplacement rebuilds the power model in place —
  // the accumulator pointer below always refers to this lane's storage.
  // A caller-provided warmed state (Rng::warmed_engine of options.seed)
  // replays the same stream while skipping the seed expansion and the
  // lazy first-block generation.
  if (rng_state != nullptr) {
    rng_.restore(*rng_state);
  } else {
    rng_.reseed(options.seed);
  }
  power_model_.emplace(processor.make_power_model());
  accumulator_.emplace(&*power_model_);
  trace_ = sim::Trace();

  now_ = TimePoint{};
  state_ = CpuState::kIdle;

  // Size every per-task buffer up front: each queue holds at most one
  // entry per task, so after this nothing in the scheduling hot path
  // allocates.  assign() produces the same value-initialized elements a
  // fresh sized construction would; reserve() only ever grows, so a lane
  // rebinding to a smaller task set keeps (and reuses) its capacity.
  run_queue_.clear();
  run_queue_.reserve(tasks.size());
  delay_queue_.clear();
  delay_queue_.reserve(tasks.size());
  jobs_.assign(tasks.size(), JobState{});
  next_instance_.assign(tasks.size(), 0);
  per_task_.assign(tasks.size(), power::ModeTotals{});
  active_ = kNoTask;
  staged_.clear();
  staged_.reserve(tasks.size());

  base_ratio_ = 1.0;
  ratio_ = 1.0;
  ramp_target_ = 1.0;
  reinvoke_after_ramp_ = false;
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
  wake_at_ = kNeverPoint;
  wake_end_ = kNeverPoint;
  sleep_power_fraction_ = 0.0;
  sleep_wake_latency_ = 0.0;
  shutdown_at_ = kNeverPoint;

  detection_enabled_ = options.faults.any() || options.containment.enabled();
  faults_injected_ = options.faults.any();
  overruns_possible_ = options.faults.overruns_enabled();
  ramp_fault_armed_ = options.faults.ramp.enabled();
  // The physical ramp slope.  With no ramp fault this is the exact
  // same double as the spec value, keeping fault-free runs
  // bit-identical; under a fault the scheduler keeps planning with the
  // spec rho while the hardware moves at this one.
  effective_ramp_rate_ =
      ramp_fault_armed_
          ? processor.ramp_rate * options.faults.ramp.rho_factor
          : processor.ramp_rate;
  faulty_model_.reset();
  if (overruns_possible_) {
    std::vector<std::string> names;
    names.reserve(tasks.size());
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks.size()); ++i) {
      names.push_back(tasks[i].name);
    }
    faulty_model_ = std::make_shared<exec::FaultyExecModel>(
        exec_model, options.faults.overruns, std::move(names));
  }
  safe_mode_ = false;
  wake_programmed_ = kNeverPoint;
  overruns_detected_ = 0;
  ramp_faults_detected_ = 0;
  late_wakeups_detected_ = 0;
  jobs_killed_ = 0;
  jobs_throttled_ = 0;
  jobs_skipped_ = 0;
  safe_mode_entries_ = 0;

  // Weakly-hard governor wiring, resolved once: disarmed runs (no
  // weakly-hard tasks, or policy kNever) never touch any of it, keeping
  // them bit-identical to the hard engine.  The structural overload
  // latch needs a validated spec, so begin() computes it.
  weakly_hard_enabled_ =
      tasks.has_weakly_hard() &&
      options.weakly_hard.policy != weakly_hard::SkipPolicy::kNever;
  skip_policy_ = weakly_hard_enabled_ ? options.weakly_hard.policy
                                      : weakly_hard::SkipPolicy::kNever;
  skip_dvs_ = weakly_hard_enabled_ && options.weakly_hard.skip_dvs;
  overload_structural_ = false;
  overload_dynamic_ = false;
  if (weakly_hard_enabled_) governor_.reset(tasks);

  jobs_completed_ = 0;
  deadline_misses_ = 0;
  context_switches_ = 0;
  scheduler_invocations_ = 0;
  speed_changes_ = 0;
  power_downs_ = 0;
  dvs_slowdowns_ = 0;
  run_queue_high_water_ = 0;
  delay_queue_high_water_ = 0;
  running_ratio_integral_ = 0.0;
  running_time_ = 0.0;

  // prev_fingerprint_ / prev_counters_ may carry the previous sim's
  // state; both are gated behind cycle_has_prev_ and overwritten before
  // any read, so clearing them would only cost allocations.
  cycle_armed_ = false;
  cycle_recording_ = false;
  cycle_has_prev_ = false;
  cycle_length_ = 0.0;
  next_boundary_ = kNever;
  jobs_per_cycle_.clear();
  cycle_segments_.clear();
  cycle_jobs_.clear();
  cycles_detected_ = 0;
  fast_forwarded_time_ = 0.0;
  fingerprint_checks_ = 0;
  fingerprint_seconds_ = 0.0;

  horizon_ = kNeverPoint;
  last_now_ = TimePoint{-1.0, 0.0};
  stalled_iterations_ = 0;
}

void SimState::start_job(TaskIndex index) {
  JobState& state = job(index);
  auto& instance = next_instance_[static_cast<std::size_t>(index)];
  const sched::Task& t = task(index);
  if (state.throttled) {
    // Resuming a throttled job: it keeps its identity (instance,
    // release, deadline) and residual demand; only the enforcement
    // window is new, with a freshly replenished budget.
    state.throttled = false;
    state.window_release = static_cast<Time>(t.phase) +
                           static_cast<Time>(instance * t.period);
    ++instance;
    state.budget_used = 0.0;
    state.overhead = 0.0;
    state.over_budget = false;
    return;
  }
  state.instance = instance++;
  state.release = static_cast<Time>(t.phase) +
                  static_cast<Time>(state.instance * t.period);
  state.window_release = state.release;
  state.executed = 0.0;
  state.budget_used = 0.0;
  state.overhead = 0.0;
  state.over_budget = false;
  state.throttled = false;
  const exec::ExecutionTimeModel* model =
      faulty_model_ != nullptr ? faulty_model_.get() : exec_model_.get();
  if (model != nullptr) {
    state.total_work = model->sample(t, rng_);
    // Running longer than the WCET would void every guarantee; running
    // shorter than the nominal BCET is harmless (BCET only parameterizes
    // execution-time models) and scenario models exploit it.  Injected
    // overruns violate the upper bound by design — that is the lie the
    // containment machinery exists to absorb.
    LPFPS_CHECK_MSG(state.total_work > 0.0 &&
                        (overruns_possible_ ||
                         state.total_work <= t.wcet + kTimeEpsilon),
                    t.name);
  } else {
    state.total_work = t.wcet;
  }
}

Time SimState::next_arrival_for_active() const {
  if (const auto release = delay_queue_.next_release(); release.has_value()) {
    return *release;
  }
  // Single-task system: the processor is free until the task's own next
  // period begins (the enforcement window's end, which coincides with
  // the release for uncontained jobs).
  const JobState& state = jobs_[static_cast<std::size_t>(active_)];
  return state.window_release + static_cast<Time>(task(active_).period);
}

bool SimState::weakly_hard_should_skip(TaskIndex index) const {
  return governor_.should_skip(index, skip_policy_,
                               overload_structural_ || overload_dynamic_);
}

void SimState::note_release_pressure(TaskIndex index) {
  if (overload_structural_ || overload_dynamic_) return;
  if (skip_policy_ != weakly_hard::SkipPolicy::kOverload) return;
  const sched::Task& t = task(index);
  const JobState& released = job(index);
  // Release-time overload probe: the declared demand that must clear
  // before this job's deadline at base speed — its own WCET plus the
  // remaining declared budgets of every strictly-higher-priority job in
  // flight.  Conservative and cheap; the structural latch covers
  // admission-time infeasibility, this catches runtime pile-ups
  // (overrun and containment backlogs) before they turn into misses.
  Work demand = t.wcet;
  const auto add_if_higher = [&](TaskIndex other) {
    const sched::Task& o = task(other);
    if (o.priority >= t.priority) return;
    const JobState& s = jobs_[static_cast<std::size_t>(other)];
    demand += snap_nonnegative(o.wcet + s.overhead - s.executed);
  };
  if (active_ != kNoTask) add_if_higher(active_);
  for (const sched::RunEntry& entry : run_queue_.entries()) {
    add_if_higher(entry.task);
  }
  const Time deadline = released.release + static_cast<Time>(t.deadline);
  if (tp_definitely_greater(after(now_, demand / base_ratio_),
                            at(deadline))) {
    overload_dynamic_ = true;
  }
}

void SimState::skip_released_job(TaskIndex index) {
  const sched::Task& t = task(index);
  JobState& state = job(index);
  if (options_->record_trace) {
    sim::JobRecord record;
    record.task = index;
    record.instance = state.instance;
    record.release = state.release;
    record.absolute_deadline =
        state.release + static_cast<Time>(t.deadline);
    record.completion = now_.absolute();
    record.executed = 0.0;
    record.finished = false;
    record.skipped = true;
    // A skip is a scheduling decision, not a late completion: the miss
    // flag (and counter) stay untouched; the governor's (m,k) ledger
    // carries the QoS accounting instead.
    trace_.add_job(record);
    if (cycle_recording_) cycle_jobs_.push_back({record, now_});
  }
  settle_weakly_hard(index, /*met=*/false, /*skipped=*/true);
  delay_queue_.insert(
      {index, state.window_release + static_cast<Time>(t.period)});
}

void SimState::settle_weakly_hard(TaskIndex index, bool met, bool skipped) {
  if (!weakly_hard_enabled_) return;
  governor_.settle(index, met, skipped);
}

Time SimState::next_arrival_for_active_skip_aware() const {
  // Earliest pending release whose job will actually demand the CPU: a
  // release the governor certainly skips — permission already earned
  // (the task's window history is frozen while it waits in the delay
  // queue) and the overload latch unable to clear before the CPU next
  // idles — defers that task's demand by one period.  Lookahead is a
  // single skip: the skip itself changes the task's window, so nothing
  // further is certain.
  bool any = false;
  Time best = 0.0;
  for (const sched::DelayEntry& entry : delay_queue_.entries()) {
    Time candidate = entry.release_time;
    if (weakly_hard_should_skip(entry.task)) {
      candidate += static_cast<Time>(task(entry.task).period);
    }
    if (!any || candidate < best) {
      best = candidate;
      any = true;
    }
  }
  if (any) return best;
  // Single-task system, as in next_arrival_for_active.
  const JobState& state = jobs_[static_cast<std::size_t>(active_)];
  return state.window_release + static_cast<Time>(task(active_).period);
}

void SimState::try_slowdown() {
  LPFPS_CHECK(active_ != kNoTask);
  LPFPS_CHECK(approx_equal(ratio_, base_ratio_, 1e-12));
  // A released-but-jitter-delayed job can become visible at any moment;
  // the exact-knowledge premise of the slowdown does not hold.
  if (!staged_.empty()) return;
  const sched::Task& t = task(active_);
  const JobState& state = job(active_);

  // Context-switch overhead can push a job's demand past its nominal
  // WCET; the WCET-based slack computation below would then lie, so
  // leave such jobs at base speed.  Under injected overruns the
  // scheduler is no longer omniscient — it knows only E_i against the
  // declared budget C_i (plus tracked kernel overhead), so the test
  // becomes: a job at or past its budget signals an overrun in
  // progress, not slack.
  if (overruns_possible_) {
    if (state.executed >= t.wcet + state.overhead - kTimeEpsilon) return;
  } else if (state.total_work > t.wcet + kTimeEpsilon) {
    return;
  }

  const Time arrival = skip_dvs_ ? next_arrival_for_active_skip_aware()
                                 : next_arrival_for_active();
  // Safety cap (see engine.h): never stretch past the active task's own
  // absolute deadline.
  const Time window_end =
      std::min(arrival, state.release + static_cast<Time>(t.deadline));
  const Time window = span(now_, at(window_end));
  const Work remaining = snap_nonnegative(t.wcet - state.executed);
  // Slack exists only if the remaining worst-case work fits below the
  // base clock inside the window (base_ratio_ == 1 gives the paper's
  // Theorem 1 hypotheses; the hybrid policy measures slack against its
  // static base speed instead).
  if (!(window > 0.0 && remaining < base_ratio_ * window)) return;

  const Ratio desired =
      policy_->dvs == RatioMethod::kOptimal
          ? optimal_ratio_to_target(remaining, window,
                                    processor_->ramp_rate, base_ratio_)
          : heuristic_ratio(remaining, window);
  const Ratio quantized = processor_->frequencies.quantize_up(desired);
  if (quantized >= base_ratio_ - 1e-12) return;

  // Both the down-ramp (now) and the just-in-time up-ramp (before
  // window_end) must fit into the window without overlapping; otherwise
  // the slack is too short to exploit and we stay at base speed.  The
  // paper's Figure 7 discussion covers exactly this short-window regime.
  const Time ramp = (base_ratio_ - quantized) / processor_->ramp_rate;
  const TimePoint up_start{window_end, -ramp};
  if (tp_definitely_greater(after(now_, ramp), up_start)) return;

  ramp_target_ = quantized;
  reinvoke_after_ramp_ = false;
  ++speed_changes_;
  ++dvs_slowdowns_;
  plan_active_ = true;
  plan_up_started_ = false;
  plan_rampup_start_ = up_start;
  plan_end_ = at(window_end);
}

void SimState::enter_power_down() {
  LPFPS_CHECK(state_ == CpuState::kIdle && active_ == kNoTask);
  LPFPS_CHECK(approx_equal(ratio_, base_ratio_, 1e-12));
  // A power-down entered at the horizon instant records no segment
  // before the run ends, so counting it would leave power_downs one
  // above the trace (audit C2).
  if (!tp_definitely_less(now_, horizon_)) return;
  // Safe mode runs plain FPS: no power-down until the episode ends at
  // the next idle instant.  The idle branch clears the flag before the
  // idle-policy switch, so this guard is belt-and-braces for the
  // timeout-shutdown path.
  if (safe_mode_) return;
  // An imminent jitter-delayed arrival forbids sleeping: the timer's
  // "exact knowledge" premise does not hold.
  if (!staged_.empty()) return;
  const auto release = delay_queue_.next_release();
  if (!release.has_value()) return;  // Everything in flight is staged.
  // Pick the deepest sleep state whose wake-up fits the known gap
  // (the classic single 5%/10-cycle state unless a hierarchy is
  // configured), then set the timer early by its latency (L14).
  const auto state =
      processor_->deepest_state_for_gap(span(now_, at(*release)));
  if (!state.has_value()) return;  // Gap too short for any state.
  const Time latency =
      state->wakeup_cycles / processor_->frequencies.f_max();
  TimePoint timer{*release, -latency};  // L14.
  if (options_->timer_granularity > 0.0) {
    // Tick-based kernels wake on the grid: round down (early is safe).
    timer = at(std::floor(timer.absolute() / options_->timer_granularity) *
               options_->timer_granularity);
  }
  if (!tp_definitely_greater(timer, now_)) return;  // Too close to sleep.
  state_ = CpuState::kPowerDown;
  wake_at_ = timer;
  wake_programmed_ = timer;
  if (options_->faults.wakeup.enabled() &&
      rng_.uniform(0.0, 1.0) < options_->faults.wakeup.probability) {
    // The timer hardware fires late; wake_programmed_ keeps the spec
    // instant detection compares against when the wake finally lands.
    wake_at_ =
        after(timer, rng_.uniform(0.0, options_->faults.wakeup.max_delay));
  }
  wake_end_ = kNeverPoint;
  sleep_power_fraction_ = state->power_fraction;
  sleep_wake_latency_ = latency;
  shutdown_at_ = kNeverPoint;
  ++power_downs_;
}

void SimState::invoke_scheduler() {
  invoke_scheduler_impl();
  if (options_->invocation_hook) {
    sched::QueueSnapshot snapshot;
    snapshot.time = now_.absolute();
    snapshot.run_queue = run_queue_.entries();
    snapshot.delay_queue = delay_queue_.entries();
    snapshot.active_task = active_;
    snapshot.active_executed =
        active_ == kNoTask ? 0.0 : job(active_).executed;
    options_->invocation_hook(snapshot);
  }
}

bool SimState::consume_releases_under_plan() {
  // Skip-to-slack conversion (docs/WEAKLY_HARD.md): consume due releases
  // the governor skips so they do not tear down the slowdown plan that
  // was sized against the skip-aware arrival.  The first non-skipped due
  // release is handed over exactly as L5-L7 would and ends the plan via
  // the ordinary L1-L4 ramp-up.  Throttle containment is banned while
  // the governor is armed (validate_spec), so every popped entry is a
  // fresh release here.
  while (!delay_queue_.empty() &&
         tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    const sched::DelayEntry due = delay_queue_.pop_head();
    start_job(due.task);
    note_release_pressure(due.task);
    if (weakly_hard_should_skip(due.task)) {
      skip_released_job(due.task);
      continue;
    }
    TimePoint ready = at(job(due.task).release);
    if (!options_->release_jitter.empty()) {
      ready.offset += rng_.uniform(
          0.0,
          options_->release_jitter[static_cast<std::size_t>(due.task)]);
    }
    if (tp_approx_le(ready, now_)) {
      run_queue_.insert({due.task, task(due.task).priority});
    } else {
      staged_.push_back({due.task, ready});
    }
    break;
  }
  bool staged_due = false;
  for (const auto& entry : staged_) {
    if (tp_approx_le(entry.ready, now_)) staged_due = true;
  }
  // Fully handled only if nothing else demands the scheduler right now:
  // the plan continues uninterrupted through the skipped arrivals.
  return run_queue_.empty() && !staged_due && active_ != kNoTask &&
         (delay_queue_.empty() ||
          !tp_approx_le(at(delay_queue_.head().release_time), now_));
}

void SimState::invoke_scheduler_impl() {
  ++scheduler_invocations_;

  // Skip-aware DVS: under an active slowdown plan, arrivals the governor
  // skips are consumed without ramping back to base — the plan keeps
  // running through them.
  if (skip_dvs_ && plan_active_ && active_ != kNoTask &&
      consume_releases_under_plan()) {
    sample_queue_depths();
    return;
  }

  // L1-L4: restore full (base) speed before any decision.
  if (ratio_ < base_ratio_ - 1e-12 || ramp_target_ < base_ratio_ - 1e-12) {
    if (!(ramp_target_ == base_ratio_ && ratio_ < ramp_target_)) {
      // Not already ramping up: redirect toward full speed.
      ramp_target_ = base_ratio_;
      ++speed_changes_;
    }
    reinvoke_after_ramp_ = true;
    return;
  }

  // L5-L7: release due tasks (via the jitter stage when configured).
  while (!delay_queue_.empty() &&
         tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    const sched::DelayEntry due = delay_queue_.pop_head();
    start_job(due.task);
    // Throttle containment is banned while the governor is armed
    // (validate_spec), so every popped entry is a fresh release.
    if (weakly_hard_enabled_) {
      note_release_pressure(due.task);
      if (weakly_hard_should_skip(due.task)) {
        skip_released_job(due.task);
        continue;
      }
    }
    TimePoint ready = at(job(due.task).release);
    if (!options_->release_jitter.empty()) {
      ready.offset += rng_.uniform(
          0.0,
          options_->release_jitter[static_cast<std::size_t>(due.task)]);
    }
    if (tp_approx_le(ready, now_)) {
      run_queue_.insert({due.task, task(due.task).priority});
    } else {
      staged_.push_back({due.task, ready});
    }
  }
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (tp_approx_le(it->ready, now_)) {
      run_queue_.insert({it->task, task(it->task).priority});
      it = staged_.erase(it);
    } else {
      ++it;
    }
  }

  // L8-L11: dispatch / preempt.
  if (active_ == kNoTask) {
    if (!run_queue_.empty()) active_ = run_queue_.pop_head().task;
  } else if (!run_queue_.empty() &&
             run_queue_.head().priority < task(active_).priority) {
    run_queue_.insert({active_, task(active_).priority});
    active_ = run_queue_.pop_head().task;
    ++context_switches_;
    // Kernel save/restore overhead executes ahead of the incoming job's
    // own work, at the prevailing clock.  The budget tracks it too: the
    // overhead is the kernel's own doing, not the job lying.
    job(active_).total_work += options_->context_switch_cost;
    job(active_).overhead += options_->context_switch_cost;
  }

  // L12-L21: power management when the run queue is empty.
  if (active_ != kNoTask) {
    state_ = CpuState::kRunning;
    shutdown_at_ = kNeverPoint;
    if (run_queue_.empty() && policy_->uses_dvs() && !safe_mode_) {
      try_slowdown();
    }
    sample_queue_depths();
    return;
  }

  state_ = CpuState::kIdle;
  sample_queue_depths();
  // An idle instant ends any safe-mode episode: the anomaly's backlog
  // has drained, so DVS and power-down become trustworthy again —
  // including at this very instant (the switch below may sleep).
  safe_mode_ = false;
  // It likewise ends a dynamic overload episode — the backlog that
  // predicted or produced misses is gone.  (The structural latch, a
  // property of the task set, never clears.)
  overload_dynamic_ = false;
  if (delay_queue_.empty()) return;  // No future work at all.
  switch (policy_->idle) {
    case IdleMethod::kBusyWait:
      break;
    case IdleMethod::kExactPowerDown:
      enter_power_down();
      break;
    case IdleMethod::kTimeoutShutdown:
      shutdown_at_ = after(now_, policy_->shutdown_timeout);
      break;
  }
}

void SimState::finish_active_job() {
  LPFPS_CHECK(active_ != kNoTask);
  const sched::Task& t = task(active_);
  JobState& state = job(active_);
  LPFPS_CHECK(approx_ge(state.executed, state.total_work));

  sim::JobRecord record;
  record.task = active_;
  record.instance = state.instance;
  record.release = state.release;
  record.absolute_deadline = state.release + static_cast<Time>(t.deadline);
  record.completion = now_.absolute();
  record.executed = state.total_work;
  record.finished = true;
  record.missed_deadline =
      tp_definitely_greater(now_, at(record.absolute_deadline));
  if (record.missed_deadline) {
    ++deadline_misses_;
    if (options_->throw_on_miss) {
      throw std::runtime_error(
          "deadline miss: task " + t.name + " instance " +
          std::to_string(state.instance) + " finished at " +
          std::to_string(record.completion) + " > deadline " +
          std::to_string(record.absolute_deadline) + " under policy " +
          policy_->name);
    }
  }
  if (options_->record_trace) {
    trace_.add_job(record);
    if (cycle_recording_) cycle_jobs_.push_back({record, now_});
  }
  ++jobs_completed_;

  if (weakly_hard_enabled_) {
    // An actual miss is the strongest overload evidence there is.
    if (record.missed_deadline) overload_dynamic_ = true;
    settle_weakly_hard(active_, /*met=*/!record.missed_deadline,
                       /*skipped=*/false);
  }

  delay_queue_.insert(
      {active_, state.window_release + static_cast<Time>(t.period)});
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  maybe_detect_ramp_fault();
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
}

void SimState::on_budget_exhausted() {
  LPFPS_CHECK(state_ == CpuState::kRunning && active_ != kNoTask);
  JobState& state = job(active_);
  state.over_budget = true;
  ++overruns_detected_;
  // A detected overrun raises the dynamic overload latch: undeclared
  // demand is in the system, so permitted skips may now be spent.
  if (weakly_hard_enabled_) overload_dynamic_ = true;
  enter_safe_mode();
  switch (options_->containment.on_overrun) {
    case faults::OverrunAction::kNone:
      // Monitor only: the overrunning job keeps the CPU (at base speed
      // once the safe-mode ramp lands) until its true demand drains.
      break;
    case faults::OverrunAction::kThrottle:
      throttle_active_job();
      break;
    case faults::OverrunAction::kKill:
      kill_active_job();
      break;
  }
}

void SimState::kill_active_job() {
  const sched::Task& t = task(active_);
  JobState& state = job(active_);
  ++jobs_killed_;
  if (options_->record_trace) {
    sim::JobRecord record;
    record.task = active_;
    record.instance = state.instance;
    record.release = state.release;
    record.absolute_deadline =
        state.release + static_cast<Time>(t.deadline);
    record.completion = now_.absolute();
    record.executed = state.executed;
    record.finished = false;
    record.killed = true;
    // An abort is not a late completion; the instance is shed, so the
    // miss flag (and counter) stay untouched.
    trace_.add_job(record);
  }
  // The killed instance settles as a failure in its task's (m,k) window
  // — the work was discarded, not delivered.
  settle_weakly_hard(active_, /*met=*/false, /*skipped=*/false);
  requeue_contained_task(active_);
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
}

void SimState::throttle_active_job() {
  JobState& state = job(active_);
  ++jobs_throttled_;
  state.throttled = true;
  requeue_contained_task(active_);
  active_ = kNoTask;
  state_ = CpuState::kIdle;
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
}

void SimState::requeue_contained_task(TaskIndex index) {
  const sched::Task& t = task(index);
  auto& instance = next_instance_[static_cast<std::size_t>(index)];
  Time next_release = static_cast<Time>(t.phase) +
                      static_cast<Time>(instance * t.period);
  // Enforcement windows the overrun already consumed are forfeited
  // (skippable-instance semantics): releasing them retroactively could
  // only cascade lateness.  With a schedulable declared demand the
  // budget exhausts before the window ends, so nothing is skipped.
  while (tp_definitely_greater(now_, at(next_release))) {
    ++instance;
    ++jobs_skipped_;
    // Each forfeited window is a failed delivery in the task's (m,k)
    // ledger, settled here in instance order (kill settles the aborted
    // instance first; throttle never combines with the governor).
    settle_weakly_hard(index, /*met=*/false, /*skipped=*/false);
    next_release = static_cast<Time>(t.phase) +
                   static_cast<Time>(instance * t.period);
  }
  delay_queue_.insert({index, next_release});
}

void SimState::enter_safe_mode() {
  if (!options_->containment.safe_mode_fallback || safe_mode_) return;
  safe_mode_ = true;
  ++safe_mode_entries_;
  // Fail toward plain FPS: abandon any slowdown plan, head straight
  // back to base speed, and (via the safe_mode_ gates) decline new
  // slowdowns, power-downs and shutdown timers until the next idle
  // instant.
  plan_active_ = false;
  plan_up_started_ = false;
  plan_rampup_start_ = kNeverPoint;
  plan_end_ = kNeverPoint;
  shutdown_at_ = kNeverPoint;
  if (ramp_target_ != base_ratio_) {
    ramp_target_ = base_ratio_;
    ++speed_changes_;
  }
}

void SimState::maybe_detect_ramp_fault() {
  if (!ramp_fault_armed_ || !plan_active_ || !plan_up_started_) return;
  if (ratio_ >= base_ratio_ - 1e-12) return;  // The ramp landed on time.
  // The just-in-time plan commands ratio(t) = base - rho_spec *
  // (plan_end - t) during its up-ramp (and base thereafter); a clock
  // measurably below that trajectory means the physical regulator is
  // slower than its spec.
  const Ratio expected =
      base_ratio_ -
      processor_->ramp_rate * std::max(0.0, span(now_, plan_end_));
  if (ratio_ < expected - 1e-9) {
    ++ramp_faults_detected_;
    enter_safe_mode();
  }
}

void SimState::setup_cycle_detection(const SpecPrep* prep) {
  // The spec-fixed gates live in eligible_cycle_hyperperiod below
  // (precomputed by prepare() on the fleet path): fault injection and
  // containment carry state (budget windows, the safe-mode latch,
  // perturbed timers) the fingerprint does not capture; jittered
  // arrivals and tick-granular timers are aperiodic relative to the
  // hyperperiod; an invocation hook observes every scheduler invocation
  // and skipping cycles would silently drop the observations it is
  // owed; trace-driven execution carries opaque per-task replay cursors
  // the fingerprint cannot see; the boundary arithmetic (k*H, shifts by
  // n*H) must stay inside the integer-exact double mantissa range; and
  // detection needs boundaries at H and 2H inside the horizon before it
  // can ever match.
  const std::int64_t hyper =
      prep != nullptr
          ? (prep->cycle_eligible ? prep->hyperperiod : 0)
          : eligible_cycle_hyperperiod(*tasks_, exec_model_, *options_);
  if (hyper == 0) return;
  if (!cycle_detection_env_enabled()) return;
  const Time length = static_cast<Time>(hyper);
  cycle_length_ = length;
  next_boundary_ = length;
  jobs_per_cycle_.resize(tasks_->size());
  for (std::size_t i = 0; i < tasks_->size(); ++i) {
    jobs_per_cycle_[i] =
        hyper / (*tasks_)[static_cast<TaskIndex>(i)].period;
  }
  cycle_armed_ = true;
}

Fingerprint SimState::take_fingerprint() const {
  Fingerprint fp;
  fp.state = state_;
  fp.active = active_;
  fp.ratio = ratio_;
  fp.ramp_target = ramp_target_;
  fp.reinvoke_after_ramp = reinvoke_after_ramp_;
  fp.plan_active = plan_active_;
  fp.plan_up_started = plan_up_started_;
  fp.now_base_rel = now_.base - next_boundary_;
  fp.now_offset = now_.offset;
  fp.plan_rampup_start_rel = span(now_, plan_rampup_start_);
  fp.plan_end_rel = span(now_, plan_end_);
  fp.wake_at_rel = span(now_, wake_at_);
  fp.wake_end_rel = span(now_, wake_end_);
  fp.shutdown_at_rel = span(now_, shutdown_at_);
  fp.sleep_power_fraction = sleep_power_fraction_;
  fp.sleep_wake_latency = sleep_wake_latency_;
  fp.run_queue = run_queue_.entries();
  fp.delay_queue_rel = delay_queue_.entries();
  for (sched::DelayEntry& entry : fp.delay_queue_rel) {
    entry.release_time = span(now_, at(entry.release_time));
  }
  fp.staged_rel.reserve(staged_.size());
  for (const StagedJob& staged : staged_) {
    fp.staged_rel.emplace_back(staged.task, span(now_, staged.ready));
  }
  const auto add_live = [&](TaskIndex index) {
    const JobState& state = jobs_[static_cast<std::size_t>(index)];
    fp.live_jobs.push_back({index, span(now_, at(state.release)),
                            state.total_work, state.executed});
  };
  if (active_ != kNoTask) add_live(active_);
  for (const sched::RunEntry& entry : run_queue_.entries()) {
    add_live(entry.task);
  }
  for (const StagedJob& staged : staged_) add_live(staged.task);
  fp.next_release_rel.reserve(tasks_->size());
  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
    const sched::Task& t = task(i);
    fp.next_release_rel.push_back(span(
        now_,
        at(static_cast<Time>(t.phase) +
           static_cast<Time>(next_instance_[static_cast<std::size_t>(i)] *
                             t.period))));
  }
  fp.rng = rng_.engine();
  return fp;
}

CounterSnapshot SimState::snapshot_counters() const {
  return {jobs_completed_,        deadline_misses_, context_switches_,
          scheduler_invocations_, speed_changes_,   power_downs_,
          dvs_slowdowns_};
}

void SimState::disarm_cycle_detection() {
  cycle_armed_ = false;
  cycle_recording_ = false;
  cycle_has_prev_ = false;
  next_boundary_ = kNever;
  cycle_segments_.clear();
  cycle_jobs_.clear();
}

void SimState::on_cycle_boundary() {
  const auto started = std::chrono::steady_clock::now();
  Fingerprint current = take_fingerprint();
  ++fingerprint_checks_;
  bool rng_moved = false;
  bool matched = false;
  if (cycle_has_prev_) {
    if (current.rng != prev_fingerprint_.rng) {
      rng_moved = true;
    } else {
      matched = current == prev_fingerprint_;
    }
  }
  fingerprint_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (rng_moved) {
    // The execution model consumes randomness each cycle; a mt19937
    // state never recurs within any simulatable horizon, so stop
    // checking.  Stochastic runs thus pay exactly two fingerprints.
    disarm_cycle_detection();
    return;
  }
  if (matched) {
    // Two consecutive boundaries are bit-identical: the simulation is a
    // proven cycle.  Skip every whole hyperperiod that still fits.
    const Time now_abs = now_.absolute();
    std::int64_t cycles = static_cast<std::int64_t>(
        (options_->horizon - now_abs) / cycle_length_);
    while (now_abs + static_cast<Time>(cycles + 1) * cycle_length_ <=
           options_->horizon) {
      ++cycles;
    }
    while (cycles > 0 &&
           now_abs + static_cast<Time>(cycles) * cycle_length_ >
               options_->horizon) {
      --cycles;
    }
    if (cycles > 0) fast_forward(cycles);
    // Any tail shorter than a cycle simulates normally; further
    // fingerprints could never pay off.
    disarm_cycle_detection();
    return;
  }
  prev_fingerprint_ = std::move(current);
  cycle_has_prev_ = true;
  prev_counters_ = snapshot_counters();
  cycle_segments_.clear();
  cycle_jobs_.clear();
  cycle_recording_ = true;
  next_boundary_ += cycle_length_;
}

void SimState::fast_forward(std::int64_t cycles) {
  LPFPS_CHECK(cycles > 0 && cycle_recording_);
  // Replay the template through the *identical* accumulator calls the
  // simulation would have made, once per skipped cycle, so every float
  // total follows the same addition sequence (and the trace coalescer
  // sees the same segment stream) as the full run.  Durations come from
  // the template verbatim — shift-invariant TimePoint arithmetic makes
  // the full simulation's own cycle-j durations bit-identical to them —
  // and absolute trace times re-materialize from (base + j*H, offset)
  // with the exact single rounding the full run would apply.
  for (std::int64_t j = 1; j <= cycles; ++j) {
    const Time offset = static_cast<Time>(j) * cycle_length_;
    for (const CycleSegment& cs : cycle_segments_) {
      const Time dt = cs.dt;
      const Ratio rb = cs.ratio_begin;
      const Ratio re = cs.ratio_end;
      // The template caches the exact energy each accumulation charged,
      // so the replay is pure addition — no power-model evaluation.
      accumulator_->charge_replay(cs.mode, dt, cs.energy);
      if (cs.mode == sim::ProcessorMode::kRunning) {
        auto& slot = per_task_[static_cast<std::size_t>(cs.task)];
        slot.time += dt;
        slot.energy += cs.energy;
        running_ratio_integral_ += (rb + re) / 2.0 * dt;
        running_time_ += dt;
      }
      if (options_->record_trace) {
        sim::Segment segment;
        segment.begin = (cs.begin.base + offset) + cs.begin.offset;
        segment.end = (cs.end.base + offset) + cs.end.offset;
        segment.mode = cs.mode;
        segment.task = cs.task;
        segment.ratio_begin = rb;
        segment.ratio_end = re;
        trace_.add_segment(segment);
      }
    }
    if (options_->record_trace) {
      for (const CycleJob& cj : cycle_jobs_) {
        sim::JobRecord record = cj.record;
        record.instance +=
            j * jobs_per_cycle_[static_cast<std::size_t>(record.task)];
        record.release += offset;
        record.absolute_deadline += offset;
        record.completion =
            (cj.completion.base + offset) + cj.completion.offset;
        trace_.add_job(record);
      }
    }
  }

  // Integer statistics advance by exact per-cycle deltas.  High-water
  // marks need nothing: a repeated cycle sets no new maximum.
  const CounterSnapshot delta = snapshot_counters();
  jobs_completed_ +=
      static_cast<int>(cycles * (delta.jobs_completed -
                                 prev_counters_.jobs_completed));
  deadline_misses_ +=
      static_cast<int>(cycles * (delta.deadline_misses -
                                 prev_counters_.deadline_misses));
  context_switches_ +=
      static_cast<int>(cycles * (delta.context_switches -
                                 prev_counters_.context_switches));
  scheduler_invocations_ +=
      static_cast<int>(cycles * (delta.scheduler_invocations -
                                 prev_counters_.scheduler_invocations));
  speed_changes_ += static_cast<int>(
      cycles * (delta.speed_changes - prev_counters_.speed_changes));
  power_downs_ += static_cast<int>(
      cycles * (delta.power_downs - prev_counters_.power_downs));
  dvs_slowdowns_ += static_cast<int>(
      cycles * (delta.dvs_slowdowns - prev_counters_.dvs_slowdowns));

  // Shift every pending anchor so the state at now_ reappears, verbatim,
  // at now_ + cycles * H.  Anchors are exact integers (or infinity), so
  // the additions are exact and every offset survives untouched.  Stale
  // JobState entries of delay-queue tasks shift too — harmless,
  // start_job rewrites them before any read.
  const Time shift = static_cast<Time>(cycles) * cycle_length_;
  delay_queue_.shift_release_times(shift);
  for (StagedJob& staged : staged_) staged.ready.base += shift;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    jobs_[i].release += shift;
    jobs_[i].window_release += shift;
    jobs_[i].instance += cycles * jobs_per_cycle_[i];
    next_instance_[i] += cycles * jobs_per_cycle_[i];
  }
  wake_at_.base += shift;
  wake_end_.base += shift;
  shutdown_at_.base += shift;
  plan_rampup_start_.base += shift;
  plan_end_.base += shift;
  now_.base += shift;

  cycles_detected_ += cycles;
  fast_forwarded_time_ += shift;
}

double SimState::slope() const {
  if (ratio_ < ramp_target_) return effective_ramp_rate_;
  if (ratio_ > ramp_target_) return -effective_ramp_rate_;
  return 0.0;
}

void SimState::advance_to(const TimePoint& next) {
  const Time dt = span(now_, next);
  LPFPS_CHECK(dt >= -kTimeEpsilon);
  if (dt <= 0.0) {
    now_ = next;
    return;
  }

  const double s = slope();
  Ratio end_ratio = ratio_ + s * dt;
  // Clamp onto the target to kill rounding drift at ramp boundaries.
  if ((s > 0.0 && end_ratio > ramp_target_) ||
      (s < 0.0 && end_ratio < ramp_target_) ||
      approx_equal(end_ratio, ramp_target_, 1e-9)) {
    end_ratio = ramp_target_;
  }

  sim::Segment segment;
  segment.begin = now_.absolute();
  segment.end = next.absolute();
  segment.ratio_begin = ratio_;
  segment.ratio_end = end_ratio;

  // The energy each branch charges into the accumulator; recorded into
  // the cycle template so the replay can re-add the identical value
  // without re-evaluating the power model.
  Energy charged = 0.0;
  switch (state_) {
    case CpuState::kRunning: {
      LPFPS_CHECK(active_ != kNoTask);
      const Work done = power::work_done(ratio_, s, dt);
      job(active_).executed += done;
      if (detection_enabled_) job(active_).budget_used += done;
      charged = s == 0.0 ? accumulator_->add_run(dt, ratio_)
                         : accumulator_->add_run_ramp(dt, ratio_, end_ratio,
                                                      effective_ramp_rate_);
      auto& slot = per_task_[static_cast<std::size_t>(active_)];
      slot.time += dt;
      slot.energy += charged;
      running_ratio_integral_ += (ratio_ + end_ratio) / 2.0 * dt;
      running_time_ += dt;
      segment.mode = sim::ProcessorMode::kRunning;
      segment.task = active_;
      break;
    }
    case CpuState::kIdle: {
      if (s == 0.0) {
        charged = accumulator_->add_idle_nop(dt, ratio_);
        segment.mode = sim::ProcessorMode::kIdleBusyWait;
      } else {
        charged = accumulator_->add_idle_ramp(dt, ratio_, end_ratio,
                                              effective_ramp_rate_);
        segment.mode = sim::ProcessorMode::kRamping;
      }
      break;
    }
    case CpuState::kPowerDown: {
      LPFPS_CHECK(s == 0.0);
      charged = accumulator_->add_power_down(dt, sleep_power_fraction_);
      segment.mode = sim::ProcessorMode::kPowerDown;
      break;
    }
    case CpuState::kWakeUp: {
      LPFPS_CHECK(s == 0.0);
      charged = accumulator_->add_wakeup(dt);
      segment.mode = sim::ProcessorMode::kWakeUp;
      break;
    }
  }

  if (cycle_recording_) {
    // Template for the steady-state replay: one entry per accumulation,
    // including sub-epsilon slivers the trace writer drops (their energy
    // still counts, so the replay must redo them).
    cycle_segments_.push_back({now_, next, dt, charged, segment.mode,
                               segment.task, segment.ratio_begin,
                               segment.ratio_end});
  }
  if (options_->record_trace) trace_.add_segment(segment);
  ratio_ = end_ratio;
  now_ = next;
}

SimState::SpecPrep SimState::prepare(const sched::TaskSet& tasks,
                                     const power::ProcessorConfig& processor,
                                     const SchedulerPolicy& policy,
                                     const exec::ExecModelPtr& exec_model,
                                     const EngineOptions& options) {
  validate_spec(tasks, processor, policy, options);
  SpecPrep prep;
  prep.hyperperiod = eligible_cycle_hyperperiod(tasks, exec_model, options);
  prep.cycle_eligible = prep.hyperperiod != 0;
  return prep;
}

void SimState::begin(const SpecPrep* prep) {
  if (prep == nullptr) {
    validate_spec(*tasks_, *processor_, *policy_, *options_);
  }

  // kOverload's structural trigger: hard-infeasible sets are in
  // overload from the first release, before any miss can be observed.
  if (weakly_hard_enabled_ &&
      skip_policy_ == weakly_hard::SkipPolicy::kOverload) {
    overload_structural_ = !hard_rta_schedulable(*tasks_);
  }

  base_ratio_ = policy_->static_ratio;
  ratio_ = base_ratio_;
  ramp_target_ = base_ratio_;

  if (options_->record_trace) {
    // Reserve from the release pattern over the horizon (the horizon is
    // normally a whole number of hyperperiods): one job record per
    // released instance, and a few segments per job (run pieces split by
    // preemptions plus idle/ramp/power-down gaps between them).
    std::size_t job_hint = 0;
    for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
      job_hint +=
          static_cast<std::size_t>(options_->horizon /
                                   static_cast<Time>(task(i).period)) +
          1;
    }
    trace_.reserve(4 * job_hint + 16, job_hint);
  }

  for (TaskIndex i = 0; i < static_cast<TaskIndex>(tasks_->size()); ++i) {
    delay_queue_.insert({i, static_cast<Time>(task(i).phase)});
  }
  setup_cycle_detection(prep);
  invoke_scheduler();

  // Loop bookkeeping the old run() kept in locals.  horizon_ stays
  // kNeverPoint until here, so the initial invocation above sees an
  // open-ended run.
  horizon_ = at(options_->horizon);
  last_now_ = TimePoint{-1.0, 0.0};
  stalled_iterations_ = 0;
}

void SimState::step() {
  if (cycle_armed_) {
    const Time now_abs = now_.absolute();
    if (now_abs == next_boundary_) {
      // The clock landed exactly on a hyperperiod boundary (phase-0
      // task sets release every task there, so the loop always stops
      // at it) and the boundary's handlers have run: a canonical
      // sampling point.  on_cycle_boundary may fast-forward now_ to
      // the last whole cycle before the horizon; re-test finished()
      // before doing anything at the new instant (the old loop's
      // `continue`).
      on_cycle_boundary();
      return;
    }
    if (now_abs > next_boundary_) {
      // Overshot (phased releases leave no event on the boundary):
      // resync to the next multiple and restart the match hunt.
      while (next_boundary_ <= now_abs) next_boundary_ += cycle_length_;
      cycle_has_prev_ = false;
      cycle_recording_ = false;
      cycle_segments_.clear();
      cycle_jobs_.clear();
    }
  }
  // Livelock detector: every step must advance time (or change state so
  // a handler clears its condition); a stuck boundary would otherwise
  // spin forever.  The threshold is far above any legitimate
  // same-instant handler cascade.
  if (now_.base == last_now_.base && now_.offset == last_now_.offset) {
    if (++stalled_iterations_ > 1000) {
      throw std::logic_error(
          "engine livelock at t=" + std::to_string(now_.absolute()) +
          " state=" + std::to_string(static_cast<int>(state_)) +
          " ratio=" + std::to_string(ratio_) + " target=" +
          std::to_string(ramp_target_) + " active=" +
          std::to_string(active_) + " plan=" +
          std::to_string(plan_active_) + " policy=" + policy_->name);
    }
  } else {
    stalled_iterations_ = 0;
    last_now_ = now_;
  }
  // ---- settle sub-resolution transitions before anything else.
  if (ratio_ != ramp_target_ &&
      power::ramp_duration(ratio_, ramp_target_, effective_ramp_rate_) <
          kTimeEpsilon) {
    // The residual transition is below the time resolution (either
    // float debris from a split ramp, or a near-instant ramp rate):
    // completing it now costs nothing measurable and prevents a
    // sub-ulp boundary that time arithmetic could never reach.
    ratio_ = ramp_target_;
  }
  if (ratio_ == ramp_target_ && reinvoke_after_ramp_) {
    // L1-L4's deferred re-entry must run *before* time advances past
    // this instant, or the power-management decision it defers (e.g.
    // entering power-down) would be skipped for the whole idle gap.
    reinvoke_after_ramp_ = false;
    invoke_scheduler();
  }

  // ---- gather candidate boundaries (all strictly in the future or
  // due exactly now; handlers below clear every condition they fire
  // on, so the loop always progresses).
  TimePoint next_other = horizon_;
  // Injected faults can break the fault-free invariant that the clock
  // is back at base speed (and the CPU awake) before any release is
  // due: a slow ramp regulator or a safe-mode redirect leaves the
  // L1-L4 ramp-up in flight across a release, and a late wake timer
  // leaves the CPU asleep through one.  The scheduler defers those
  // releases (reinvoke_after_ramp_ / the wake handler serves them),
  // so they must not pin the loop at the current instant — nor may an
  // already-overslept release become a candidate in the past.
  const bool ramp_locked = reinvoke_after_ramp_ && ratio_ != ramp_target_;
  const bool releases_blocked =
      faults_injected_ &&
      (ramp_locked || state_ == CpuState::kPowerDown ||
       state_ == CpuState::kWakeUp);
  if (const auto release = delay_queue_.next_release();
      release.has_value() && !releases_blocked) {
    const TimePoint candidate = at(*release);
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (ratio_ != ramp_target_) {
    const TimePoint candidate =
        after(now_, power::ramp_duration(ratio_, ramp_target_,
                                         effective_ramp_rate_));
    if (tp_less(candidate, next_other)) next_other = candidate;
  }
  if (plan_active_ && !plan_up_started_ &&
      tp_less(plan_rampup_start_, next_other)) {
    next_other = plan_rampup_start_;
  }
  if (state_ == CpuState::kPowerDown && tp_less(wake_at_, next_other)) {
    next_other = wake_at_;
  }
  if (state_ == CpuState::kWakeUp && tp_less(wake_end_, next_other)) {
    next_other = wake_end_;
  }
  if (state_ == CpuState::kIdle && shutdown_at_.base != kNever &&
      tp_less(shutdown_at_, next_other)) {
    next_other = shutdown_at_;
  }
  if (!(faults_injected_ && ramp_locked)) {
    for (const StagedJob& staged : staged_) {
      if (tp_less(staged.ready, next_other)) next_other = staged.ready;
    }
  }
  LPFPS_CHECK(tp_approx_ge(next_other, now_));
  if (tp_less(next_other, now_)) next_other = now_;

  // ---- completion of the active task, if it lands first; under
  // detection, budget exhaustion competes on the same work clock.
  bool completes = false;
  bool budget_exhausts = false;
  TimePoint next = next_other;
  if (state_ == CpuState::kRunning) {
    const JobState& state = job(active_);
    const Work remaining =
        snap_nonnegative(state.total_work - state.executed);
    const auto tau = power::time_to_complete(
        ratio_, slope(), span(now_, next_other), remaining);
    if (tau.has_value()) {
      next = after(now_, *tau);
      completes = true;
    }
    if (detection_enabled_ && !state.over_budget) {
      const Work budget_left = snap_nonnegative(
          (task(active_).wcet + state.overhead) - state.budget_used);
      const Time budget_window = span(now_, next);
      const auto tau_budget = power::time_to_complete(
          ratio_, slope(), budget_window, budget_left);
      // The completion wins ties and sub-epsilon photo finishes: a
      // job finishing at its exact budget is in contract, and
      // time_to_complete clips near-boundary crossings onto the
      // window end (so an in-contract job's budget crossing can land
      // one ulp *before* its own completion).  Without a completion
      // in sight any in-window crossing is an overrun, including one
      // tying the window end exactly (a kill coinciding with a
      // release must fire before the released job runs); that is
      // safe for containment-without-faults bit-identity because an
      // in-contract job's crossing never precedes its completion, so
      // completes=false implies the true crossing also lies beyond
      // the window.
      const bool exhausts_first =
          tau_budget.has_value() &&
          (completes ? definitely_less(*tau_budget, *tau) : true);
      if (exhausts_first) {
        next = after(now_, *tau_budget);
        completes = false;
        budget_exhausts = true;
      }
    }
  }

  advance_to(next);

  // ---- fire handlers for every condition now due.
  bool need_scheduler = false;

  if (ratio_ == ramp_target_ && reinvoke_after_ramp_) {
    reinvoke_after_ramp_ = false;
    need_scheduler = true;  // L1-L4's deferred re-entry.
  }
  if (budget_exhausts) {
    on_budget_exhausted();
    need_scheduler = true;
  }
  if (completes) {
    finish_active_job();
    need_scheduler = true;
  }
  if (plan_active_ && !plan_up_started_ &&
      tp_approx_le(plan_rampup_start_, now_)) {
    plan_up_started_ = true;
    if (ramp_target_ != base_ratio_) {
      ramp_target_ = base_ratio_;
      ++speed_changes_;
    }
  }
  if (ramp_fault_armed_ && plan_active_ && plan_up_started_ &&
      ratio_ == base_ratio_ && ratio_ == ramp_target_) {
    // The plan's return ramp has (finally) reached base speed.  Under
    // a DVS ramp fault the physical slope is shallower than the spec
    // rho the just-in-time plan was computed with, so the clock can
    // still be below base at plan_end_ — the observable anomaly.
    if (tp_definitely_greater(now_, plan_end_)) {
      ++ramp_faults_detected_;
      enter_safe_mode();
    }
    plan_active_ = false;
    plan_up_started_ = false;
    plan_rampup_start_ = kNeverPoint;
    plan_end_ = kNeverPoint;
  }
  if (state_ == CpuState::kPowerDown && tp_approx_le(wake_at_, now_)) {
    if (detection_enabled_ &&
        span(wake_programmed_, now_) > kTimeEpsilon) {
      // The timer fired measurably after its programmed instant; the
      // gap the power-down was sized for is already compromised.
      ++late_wakeups_detected_;
      enter_safe_mode();
    }
    wake_programmed_ = kNeverPoint;
    wake_at_ = kNeverPoint;
    const Time delay = sleep_wake_latency_;
    if (delay > 0.0) {
      state_ = CpuState::kWakeUp;
      wake_end_ = after(now_, delay);
    } else {
      state_ = CpuState::kIdle;
      need_scheduler = true;
    }
  } else if (state_ == CpuState::kWakeUp &&
             tp_approx_le(wake_end_, now_)) {
    wake_end_ = kNeverPoint;
    state_ = CpuState::kIdle;
    need_scheduler = true;
  }
  if (state_ == CpuState::kIdle && shutdown_at_.base != kNever &&
      tp_approx_le(shutdown_at_, now_)) {
    shutdown_at_ = kNeverPoint;
    enter_power_down();
  }
  if ((state_ == CpuState::kIdle || state_ == CpuState::kRunning) &&
      !delay_queue_.empty() &&
      tp_approx_le(at(delay_queue_.head().release_time), now_)) {
    need_scheduler = true;
  }
  for (const StagedJob& staged : staged_) {
    if ((state_ == CpuState::kIdle || state_ == CpuState::kRunning) &&
        tp_approx_le(staged.ready, now_)) {
      need_scheduler = true;
      break;
    }
  }

  if (need_scheduler) invoke_scheduler();
}

SimulationResult SimState::finish() {
  // The tolerance scales with the horizon: long fast-forwardable runs
  // accumulate ulp-level dt rounding across millions of segment
  // additions, exactly like a full simulation of the same span would.
  LPFPS_CHECK_MSG(
      approx_equal(accumulator_->total_time(), options_->horizon,
                   std::max(1e-3, 1e-9 * options_->horizon)),
      "unaccounted simulation time");

  SimulationResult result;
  result.policy_name = policy_->name;
  result.simulated_time = options_->horizon;
  result.total_energy = accumulator_->total_energy();
  result.average_power = result.total_energy / options_->horizon;
  for (std::size_t i = 0; i < result.by_mode.size(); ++i) {
    result.by_mode[i] =
        accumulator_->totals(static_cast<sim::ProcessorMode>(i));
  }
  result.jobs_completed = jobs_completed_;
  result.deadline_misses = deadline_misses_;
  result.context_switches = context_switches_;
  result.scheduler_invocations = scheduler_invocations_;
  result.speed_changes = speed_changes_;
  result.power_downs = power_downs_;
  result.dvs_slowdowns = dvs_slowdowns_;
  result.run_queue_high_water = run_queue_high_water_;
  result.delay_queue_high_water = delay_queue_high_water_;
  result.mean_running_ratio =
      running_time_ > 0.0 ? running_ratio_integral_ / running_time_ : 1.0;
  result.overruns_detected = overruns_detected_;
  result.ramp_faults_detected = ramp_faults_detected_;
  result.late_wakeups_detected = late_wakeups_detected_;
  result.jobs_killed = jobs_killed_;
  result.jobs_throttled = jobs_throttled_;
  result.jobs_skipped = jobs_skipped_;
  result.safe_mode_entries = safe_mode_entries_;
  if (weakly_hard_enabled_) {
    result.jobs_skipped_weakly = governor_.jobs_skipped_weakly();
    result.mk_violations = governor_.mk_violations();
    result.weakly_hard_worst_slack = governor_.worst_window_slack();
  }
  result.cycles_detected = cycles_detected_;
  result.fast_forwarded_time = fast_forwarded_time_;
  result.fingerprint_checks = fingerprint_checks_;
  result.fingerprint_seconds = fingerprint_seconds_;
  result.per_task = per_task_;
  if (options_->record_trace) {
    trace_.check_invariants();
    result.trace = std::move(trace_);
  }
  return result;
}

SimulationResult SimState::run(const SpecPrep* prep) {
  begin(prep);
  while (!finished()) step();
  return finish();
}

}  // namespace lpfps::core
