// Simulation state — the engine's main loop as a reusable object.
//
// SimState is the engine's former internal Simulation class, verbatim:
// Engine::run constructs one and calls run(), which validates the spec,
// seeds the queues, loops event by event to the horizon and assembles
// the result.  Engine::run delegates here, so this class *is* the
// reference simulation semantics.
//
// reset() rebinds an existing SimState to a new simulation while
// retaining every internal buffer's capacity (queues, job tables,
// per-task totals).  A reset state is bit-identical to a freshly
// constructed one — the mt19937 reseed, the cleared queues, and
// the re-derived fault wiring reproduce the constructor exactly — which
// is what lets the fleet engine (src/fleet/) run thousands of
// simulations on one reused lane without paying the allocation and
// setup cost per sim (docs/FLEET.md quantifies that cost).  The
// differential suite in tests/fleet/ pins reset-then-run against a
// fresh core::simulate byte for byte.
//
// Lifetime: SimState borrows `tasks`, `processor`, `policy` and
// `options` (it stores pointers); they must outlive the run.  The
// execution model is shared by shared_ptr.  Engine::run and
// fleet::FleetEngine both satisfy this by keeping the spec alive for
// the duration.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "common/float_compare.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "faults/faults.h"
#include "power/energy.h"
#include "power/power_model.h"
#include "power/processor.h"
#include "sched/queues.h"
#include "sched/task_set.h"
#include "sim/trace.h"

namespace lpfps::core {

/// Internal time/state machinery of the engine loop.  Exposed in a
/// header only so SimState can live outside engine.cc; not a public
/// API surface — everything here may change with the engine.
namespace detail {

inline constexpr Time kNever = std::numeric_limits<Time>::infinity();

/// An instant in simulated time, kept as an exact anchor plus a small
/// offset instead of one accumulated double.
///
/// The anchor is always an exactly-representable value (a release time,
/// a hyperperiod boundary, the horizon — integers in this codebase) and
/// the offset is the fractional distance the clock has moved since, a
/// value bounded by one task period.  Durations are computed as
/// (base difference) + (offset difference): the bases subtract exactly,
/// so a duration between two instants one hyperperiod later is
/// *bit-identical* — plain absolute doubles cannot promise that, because
/// crossing a power-of-two magnitude changes the rounding grid and an
/// `end - begin` subtraction picks up a different ulp.  This exact
/// shift-invariance is what lets the steady-state fast-forward replay a
/// proven cycle and still match a full simulation bit for bit.
///
/// Absolute times (trace segments, job completions) materialize with a
/// single rounding via absolute(); the replay re-materializes from the
/// same (base + n*H, offset) pair, reproducing the rounding exactly.
struct TimePoint {
  Time base = 0.0;    ///< Exact anchor (or +inf for "never").
  Time offset = 0.0;  ///< Time since the anchor; may be slightly negative
                      ///< (wake timers fire `latency` before a release).

  Time absolute() const { return base + offset; }
};

inline constexpr TimePoint kNeverPoint{kNever, 0.0};

inline TimePoint at(Time t) { return {t, 0.0}; }

inline TimePoint after(const TimePoint& p, Time delta) {
  return {p.base, p.offset + delta};
}

/// b - a with the anchors cancelling exactly (shift-invariant).
inline Time span(const TimePoint& a, const TimePoint& b) {
  return (b.base - a.base) + (b.offset - a.offset);
}

inline bool tp_less(const TimePoint& a, const TimePoint& b) {
  return span(a, b) > 0.0;
}
inline bool tp_approx_le(const TimePoint& a, const TimePoint& b) {
  return span(b, a) <= kTimeEpsilon;
}
inline bool tp_approx_ge(const TimePoint& a, const TimePoint& b) {
  return span(a, b) <= kTimeEpsilon;
}
inline bool tp_definitely_less(const TimePoint& a, const TimePoint& b) {
  return span(a, b) > kTimeEpsilon;
}
inline bool tp_definitely_greater(const TimePoint& a, const TimePoint& b) {
  return span(b, a) > kTimeEpsilon;
}

/// Processor macro-state.  The speed ratio / ramping sub-state is
/// orthogonal and tracked separately.
enum class CpuState : std::uint8_t {
  kIdle,       ///< No active task; busy-waiting NOPs.
  kRunning,    ///< Executing the active task.
  kPowerDown,  ///< Power-down mode, timer armed.
  kWakeUp,     ///< Returning from power-down (full power, no work).
};

/// Per-task in-flight job bookkeeping (E_i of the paper).
struct JobState {
  std::int64_t instance = 0;
  Time release = 0.0;
  Work total_work = 0.0;  ///< This instance's actual execution time.
  Work executed = 0.0;    ///< E_i: work consumed so far.
  // Budget-enforcement bookkeeping; inert (and never read) unless
  // faults or containment are configured.
  Time window_release = 0.0;  ///< Release of the enforcement window.
  Work budget_used = 0.0;     ///< Work consumed against the window budget.
  Work overhead = 0.0;        ///< Context-switch work past the nominal WCET.
  bool over_budget = false;   ///< Exhaustion latch: one firing per window.
  bool throttled = false;     ///< Suspended; the next start_job resumes it.
};

/// Canonical scheduler state at a hyperperiod boundary, with every
/// absolute time expressed relative to the boundary so two boundaries
/// one (or more) hyperperiods apart can compare equal.  Equality is
/// exact — bitwise on floats — because only a bit-identical state
/// guarantees bit-identical future evolution; a near-miss simply means
/// we keep simulating, never that we skip incorrectly.  kNever timers
/// stay infinite under subtraction, so idle timers compare equal too.
struct Fingerprint {
  CpuState state = CpuState::kIdle;
  TaskIndex active = kNoTask;
  Ratio ratio = 1.0;
  Ratio ramp_target = 1.0;
  bool reinvoke_after_ramp = false;
  bool plan_active = false;
  bool plan_up_started = false;
  /// The clock's own anchor decomposition at the boundary (normally
  /// (0, 0): phase-0 sets release every task there).  Two boundaries
  /// with different decompositions would materialize future absolute
  /// times differently, so they must not compare equal.
  Time now_base_rel = 0.0;
  Time now_offset = 0.0;
  Time plan_rampup_start_rel = 0.0;
  Time plan_end_rel = 0.0;
  Time wake_at_rel = 0.0;
  Time wake_end_rel = 0.0;
  Time shutdown_at_rel = 0.0;
  double sleep_power_fraction = 0.0;
  Time sleep_wake_latency = 0.0;
  std::vector<sched::RunEntry> run_queue;
  std::vector<sched::DelayEntry> delay_queue_rel;  ///< release -= boundary.
  std::vector<std::pair<TaskIndex, Time>> staged_rel;

  /// In-flight job of the active / ready / staged tasks.  Tasks waiting
  /// in the delay queue carry stale JobState (overwritten by the next
  /// start_job before any read), so only live jobs participate.
  struct LiveJob {
    TaskIndex task = kNoTask;
    Time release_rel = 0.0;
    Work total_work = 0.0;
    Work executed = 0.0;
    friend bool operator==(const LiveJob&, const LiveJob&) = default;
  };
  std::vector<LiveJob> live_jobs;

  /// Upcoming release of each task's *next* instance, relative to the
  /// boundary (start_job computes the absolute twin).  Implied by the
  /// delay-queue entries for well-formed states; carried explicitly so a
  /// next_instance_ divergence can never slip through.
  std::vector<Time> next_release_rel;

  /// The full generator state.  Deterministic models never touch it, so
  /// it compares equal; stochastic models advance it monotonically, so
  /// boundaries can never match (and one mismatch disarms the detector).
  std::mt19937_64 rng;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// One advance_to accumulation of the template cycle, replayed verbatim
/// per skipped hyperperiod.  Times are kept as TimePoints so the replay
/// re-materializes absolute trace times with the exact rounding the full
/// simulation would produce.  `ramp` records which accumulator overload
/// the simulation actually called (a sub-ulp ramp step can leave
/// ratio_begin == ratio_end while still being a ramp accumulation).
struct CycleSegment {
  TimePoint begin;
  TimePoint end;
  Time dt = 0.0;  ///< span(begin, end), the exact duration accumulated.
  /// Energy the accumulator charged for this segment.  A repeated
  /// segment's energy is a pure function of (dt, ratios, mode), so the
  /// replay adds this cached double — the identical value, in the
  /// identical order — instead of re-evaluating the power model, which
  /// is what makes fast-forward decisively cheaper than simulation.
  Energy energy = 0.0;
  sim::ProcessorMode mode = sim::ProcessorMode::kIdleBusyWait;
  TaskIndex task = kNoTask;
  Ratio ratio_begin = 1.0;
  Ratio ratio_end = 1.0;
};

/// One job completion inside the template cycle.  The completion instant
/// rides along as a TimePoint for exact re-materialization.
struct CycleJob {
  sim::JobRecord record;
  TimePoint completion;
};

/// Integer statistics at a boundary; per-cycle deltas extrapolate
/// exactly (replay adds `cycles * delta`, no float involved).
struct CounterSnapshot {
  int jobs_completed = 0;
  int deadline_misses = 0;
  int context_switches = 0;
  int scheduler_invocations = 0;
  int speed_changes = 0;
  int power_downs = 0;
  int dvs_slowdowns = 0;
};

}  // namespace detail

/// The full mutable state of one simulation plus the engine main loop
/// (see the file comment for the contract).  Engine::run builds one of
/// these per call; the fleet engine keeps one and reset()s it between
/// sims.
class SimState {
 public:
  /// `tasks` must validate (unique priorities assigned).  `exec_model`
  /// may be null, in which case every job takes its WCET.  Borrows every
  /// reference argument for the lifetime of the run (see file comment).
  /// `rng_state`, when non-null, must be Rng::warmed_engine of
  /// `options.seed`: the generator is restored from it instead of
  /// reseeded, skipping the seed expansion and first-block generation
  /// bit-identically (the fleet caches one warmed state per spec).
  SimState(const sched::TaskSet& tasks,
           const power::ProcessorConfig& processor,
           const SchedulerPolicy& policy, const exec::ExecModelPtr& exec_model,
           const EngineOptions& options,
           const std::mt19937_64* rng_state = nullptr);

  SimState(const SimState&) = delete;
  SimState& operator=(const SimState&) = delete;

  /// Rebinds to a new simulation, reusing buffer capacity.  The state
  /// after reset is bit-identical to a freshly constructed SimState.
  /// `rng_state` as in the constructor.
  void reset(const sched::TaskSet& tasks,
             const power::ProcessorConfig& processor,
             const SchedulerPolicy& policy,
             const exec::ExecModelPtr& exec_model,
             const EngineOptions& options,
             const std::mt19937_64* rng_state = nullptr);

  /// Per-spec work that is a pure function of the (immutable) spec: the
  /// validation verdict and the cycle-eligibility probe (hyperperiod
  /// LCM included).  The fleet computes one of these per spec at add()
  /// time and passes it back on every run, so a rebound lane skips the
  /// redundant re-checks; run(nullptr) — the serial path — recomputes
  /// both, bit-identically (neither influences any simulated value,
  /// only whether run() throws and whether the detector arms).
  struct SpecPrep {
    bool cycle_eligible = false;   ///< Passed every spec-fixed gate.
    std::int64_t hyperperiod = 0;  ///< Cycle length; valid when eligible.
  };

  /// Validates the spec exactly as run() would (same checks, same
  /// exceptions) and probes cycle eligibility.
  static SpecPrep prepare(const sched::TaskSet& tasks,
                          const power::ProcessorConfig& processor,
                          const SchedulerPolicy& policy,
                          const exec::ExecModelPtr& exec_model,
                          const EngineOptions& options);

  /// Runs the simulation to the horizon and returns its result — the
  /// exact semantics of Engine::run (which delegates here).  Call once
  /// per construction or reset().  With a `prep` (from prepare() on the
  /// same spec), validation and the eligibility probe are skipped; only
  /// the runtime LPFPS_CYCLE gate is re-read.
  SimulationResult run(const SpecPrep* prep = nullptr);

 private:
  // --- the main loop: begin, step until finished, finish ----------------
  /// Validates inputs (unless `prep` is given), seeds the delay queue,
  /// arms cycle detection, and performs the initial scheduler
  /// invocation.
  void begin(const SpecPrep* prep);

  /// True once the clock has reached the horizon.
  bool finished() const {
    return !detail::tp_definitely_less(now_, horizon_);
  }

  /// One iteration of the engine event loop: settle sub-resolution
  /// transitions, gather candidate boundaries, advance time, fire every
  /// handler now due.
  void step();

  /// Checks the accounted-time invariant and assembles the result.
  SimulationResult finish();

  // --- scheduling machinery -------------------------------------------
  void start_job(TaskIndex task);
  void invoke_scheduler();
  void invoke_scheduler_impl();
  void try_slowdown();
  void enter_power_down();
  void finish_active_job();

  // --- weakly-hard skip governor (docs/WEAKLY_HARD.md) ------------------
  /// Release-time decision for the just-started job of `index`: governor
  /// armed, constraint window permits, and the policy/overload state
  /// calls for spending the skip.
  bool weakly_hard_should_skip(TaskIndex index) const;
  /// Raises the dynamic overload latch when the just-released job of
  /// `index` cannot complete by its deadline at base speed given the
  /// declared remaining demand of higher-priority ready jobs.
  void note_release_pressure(TaskIndex index);
  /// Books a governor-granted skip of the just-started job: skip record,
  /// settle, re-queue at the next period.  The job never becomes ready.
  void skip_released_job(TaskIndex index);
  /// Feeds a settled job outcome to the governor (no-op when disarmed).
  void settle_weakly_hard(TaskIndex index, bool met, bool skipped);
  /// Skip-aware DVS fast path: while a slowdown plan is active, consume
  /// due releases before the L1-L4 ramp-up check; skipped ones never
  /// wake the plan.  Returns true when the invocation is fully handled
  /// (only skipped releases were due) and the plan should keep running.
  bool consume_releases_under_plan();

  // --- fault detection and containment ---------------------------------
  /// The active job just exhausted its WCET budget: count the overrun,
  /// enter safe mode, apply the configured containment action.
  void on_budget_exhausted();
  /// Aborts the active job at its budget (OverrunAction::kKill).
  void kill_active_job();
  /// Suspends the active job to its next period window, where its
  /// budget replenishes (OverrunAction::kThrottle).
  void throttle_active_job();
  /// Re-inserts a contained task into the delay queue at its next
  /// enforcement-window boundary, forfeiting windows already overrun.
  void requeue_contained_task(TaskIndex index);
  /// Latches safe mode: cancel the DVS plan, ramp to base, and decline
  /// slowdowns/power-downs until the next idle instant.
  void enter_safe_mode();
  /// Compares the clock against the plan's commanded spec trajectory at
  /// the instant a plan ends; a measurable lag is a DVS ramp fault.
  void maybe_detect_ramp_fault();

  // --- time advancement ------------------------------------------------
  /// Current ramp slope in ratio-units per microsecond (0 when steady).
  double slope() const;
  /// Advances the clock to `next`, integrating energy, work and trace.
  void advance_to(const detail::TimePoint& next);

  // --- steady-state cycle detection ------------------------------------
  /// Arms the detector when the run qualifies (see engine.h).  With a
  /// `prep`, reuses its precomputed eligibility verdict + hyperperiod.
  void setup_cycle_detection(const SpecPrep* prep);
  /// Fingerprints the state at now_ == next_boundary_; on a match,
  /// fast-forwards the remaining whole cycles and disarms.
  void on_cycle_boundary();
  detail::Fingerprint take_fingerprint() const;
  detail::CounterSnapshot snapshot_counters() const;
  /// Replays the recorded template cycle `cycles` times: identical
  /// accumulator calls for energy/ratio integrals, exact integer deltas
  /// for counters, time-shifted trace splices, then shifts every pending
  /// absolute time so the simulation resumes at now_ + cycles * H.
  void fast_forward(std::int64_t cycles);
  void disarm_cycle_detection();

  const sched::Task& task(TaskIndex index) const {
    return (*tasks_)[index];
  }
  detail::JobState& job(TaskIndex index) {
    return jobs_[static_cast<std::size_t>(index)];
  }

  /// Next release the active task must be ready for: head of the delay
  /// queue, or (single-task systems) its own next period.
  Time next_arrival_for_active() const;

  /// Skip-aware twin: the next release whose job the governor will
  /// *not* certainly skip (each certainly-skipped head defers its task
  /// by one period).  Equals next_arrival_for_active when skip-aware
  /// DVS is off.
  Time next_arrival_for_active_skip_aware() const;

  // --- borrowed inputs (rebound by reset) ------------------------------
  const sched::TaskSet* tasks_ = nullptr;
  const power::ProcessorConfig* processor_ = nullptr;
  const SchedulerPolicy* policy_ = nullptr;
  exec::ExecModelPtr exec_model_;
  const EngineOptions* options_ = nullptr;

  // --- mutable state ----------------------------------------------------
  // Optionals give the lane-reuse story in-place re-emplacement: the
  // power model's address stays stable (the accumulator points at it)
  // and neither needs a default-constructed null state.
  Rng rng_{0};
  std::optional<power::PowerModel> power_model_;
  std::optional<power::EnergyAccumulator> accumulator_;
  sim::Trace trace_;

  detail::TimePoint now_;
  detail::CpuState state_ = detail::CpuState::kIdle;

  sched::RunQueue run_queue_;
  sched::DelayQueue delay_queue_;
  std::vector<detail::JobState> jobs_;
  std::vector<std::int64_t> next_instance_;
  std::vector<power::ModeTotals> per_task_;
  TaskIndex active_ = kNoTask;

  /// Jobs released (instance started, execution time drawn) but not yet
  /// visible to the scheduler because of release jitter.
  struct StagedJob {
    TaskIndex task = kNoTask;
    detail::TimePoint ready;
  };
  std::vector<StagedJob> staged_;

  // Speed sub-state: ratio_ moves toward ramp_target_ at ramp_rate.
  // "Full speed" for the scheduler is base_ratio_: 1.0 normally, or the
  // policy's constant clock under static slowdown.
  Ratio base_ratio_ = 1.0;
  Ratio ratio_ = 1.0;
  Ratio ramp_target_ = 1.0;
  /// L1-L4 semantics: re-enter the scheduler when the ramp completes.
  bool reinvoke_after_ramp_ = false;

  // DVS plan (active only while the active task runs slowed).
  bool plan_active_ = false;
  bool plan_up_started_ = false;
  detail::TimePoint plan_rampup_start_ = detail::kNeverPoint;
  detail::TimePoint plan_end_ = detail::kNeverPoint;

  // Power-down timers and the sleep state currently occupied.
  detail::TimePoint wake_at_ = detail::kNeverPoint;   ///< Timer expiry.
  detail::TimePoint wake_end_ = detail::kNeverPoint;  ///< End of wake-up.
  double sleep_power_fraction_ = 0.0;
  Time sleep_wake_latency_ = 0.0;

  // Timeout-shutdown policy state.
  detail::TimePoint shutdown_at_ = detail::kNeverPoint;

  // Fault injection / containment (resolved once per reset; all of it
  // inert — and bit-identity preserving — when neither options->faults
  // nor options->containment is configured).
  bool detection_enabled_ = false;  ///< Any fault or containment active.
  bool faults_injected_ = false;    ///< FaultPlan actually perturbs the run.
  bool overruns_possible_ = false;  ///< Execution model may exceed WCET.
  bool ramp_fault_armed_ = false;
  double effective_ramp_rate_ = 0.0;  ///< Physical rho (== spec if healthy).
  exec::ExecModelPtr faulty_model_;   ///< Overrun wrapper, else null.
  bool safe_mode_ = false;
  detail::TimePoint wake_programmed_ = detail::kNeverPoint;  ///< Spec L14.
  int overruns_detected_ = 0;
  int ramp_faults_detected_ = 0;
  int late_wakeups_detected_ = 0;
  int jobs_killed_ = 0;
  int jobs_throttled_ = 0;
  int jobs_skipped_ = 0;
  int safe_mode_entries_ = 0;

  // Weakly-hard skip governor (resolved once per reset; everything
  // below is inert — and bit-identity preserving — unless the task set
  // declares weakly-hard constraints and the policy is not kNever).
  bool weakly_hard_enabled_ = false;
  bool skip_dvs_ = false;
  weakly_hard::SkipPolicy skip_policy_ = weakly_hard::SkipPolicy::kNever;
  weakly_hard::SkipGovernor governor_;
  /// Hard RTA failed at reset: the set cannot meet every deadline even
  /// at base speed, so degradation is on from t = 0 and never clears.
  bool overload_structural_ = false;
  /// Runtime trigger — predicted miss at a release, detected overrun,
  /// or an actual miss; cleared at the next idle instant (the backlog
  /// has drained).
  bool overload_dynamic_ = false;

  // Statistics.
  int jobs_completed_ = 0;
  int deadline_misses_ = 0;
  int context_switches_ = 0;
  int scheduler_invocations_ = 0;
  int speed_changes_ = 0;
  int power_downs_ = 0;
  int dvs_slowdowns_ = 0;
  int run_queue_high_water_ = 0;
  int delay_queue_high_water_ = 0;
  double running_ratio_integral_ = 0.0;
  Time running_time_ = 0.0;

  // Steady-state cycle detection (setup_cycle_detection decides whether
  // to arm; everything below is inert when cycle_armed_ is false).
  bool cycle_armed_ = false;
  bool cycle_recording_ = false;  ///< advance_to appends to the template.
  bool cycle_has_prev_ = false;
  Time cycle_length_ = 0.0;       ///< Hyperperiod, exactly representable.
  Time next_boundary_ = detail::kNever;
  std::vector<std::int64_t> jobs_per_cycle_;  ///< H / period, per task.
  detail::Fingerprint prev_fingerprint_;
  detail::CounterSnapshot prev_counters_;
  std::vector<detail::CycleSegment> cycle_segments_;  ///< Template cycle.
  std::vector<detail::CycleJob> cycle_jobs_;  ///< Completions in the cycle.
  std::int64_t cycles_detected_ = 0;
  Time fast_forwarded_time_ = 0.0;
  std::int64_t fingerprint_checks_ = 0;
  double fingerprint_seconds_ = 0.0;

  // Loop bookkeeping, formerly locals of the old run() (the livelock
  // detector and the horizon the loop tests against).
  detail::TimePoint horizon_ = detail::kNeverPoint;
  detail::TimePoint last_now_{-1.0, 0.0};
  int stalled_iterations_ = 0;

  /// Samples the queue depths for the high-water counters; called at
  /// every scheduler-invocation exit (the only points where the queues
  /// change).  The ready depth counts the dispatched task too.
  void sample_queue_depths() {
    const int ready = static_cast<int>(run_queue_.size()) +
                      (active_ != kNoTask ? 1 : 0);
    run_queue_high_water_ = std::max(run_queue_high_water_, ready);
    delay_queue_high_water_ = std::max(
        delay_queue_high_water_, static_cast<int>(delay_queue_.size()));
  }
};

}  // namespace lpfps::core
