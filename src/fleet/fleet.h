// Fleet engine: many small independent simulations on one reused lane.
//
// Sweeps (random tasksets, fault magnitudes, policy ablations) are loops
// of independent, tiny simulations whose per-sim setup (Engine copies,
// buffer allocations, mt19937_64 seeding) rivals their event work.
// add() validates each spec, probes its cycle eligibility and warms its
// RNG state once; run_all() runs the specs in add order on one SimState
// *lane*, rebinding it for every spec after the first (SimState::reset:
// buffers kept, the warmed RNG state restored instead of a reseed).
//
// **Bit-identity.**  A lane runs SimState::run, the code
// `core::Engine::run` runs, and a reset lane equals a fresh one, so
// every result (CSV row, trace, audit report) is bit-identical to a
// serial `core::simulate` of the same spec; tests/fleet/ pins this and
// docs/FLEET.md has the argument and the cost.  Any spec `simulate`
// accepts is eligible, invocation hooks included, except that specs
// sharing one exec::TraceDrivenModel instance must not be batched
// (mutable replay cursors, as for the parallel runner).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <random>
#include <vector>

#include "core/engine.h"
#include "core/policy.h"
#include "core/result.h"
#include "exec/exec_model.h"
#include "power/processor.h"
#include "runner/runner.h"
#include "sched/task_set.h"

namespace lpfps::core {
class SimState;
}  // namespace lpfps::core

namespace lpfps::fleet {

/// One simulation to run: the same four components core::simulate
/// takes, owned by value so a spec outlives the lane that borrows it.
struct SimSpec {
  sched::TaskSet tasks;
  power::ProcessorConfig processor;
  core::SchedulerPolicy policy;
  exec::ExecModelPtr exec_model;  ///< May be null (WCET execution).
  core::EngineOptions options;
};

/// Has no fields: kept so callers (perfbench/ among them) still pass
/// `FleetOptions{}` through the run_* and audit entry points.
struct FleetOptions {};

/// Counters of one run_* call (docs/FLEET.md reports them).
struct FleetStats {
  std::size_t sims = 0;
  std::size_t lane_constructions = 0;  ///< Fresh SimState allocations.
  std::size_t lane_rebinds = 0;        ///< Buffer-reusing resets.
  std::int64_t events = 0;  ///< Scheduler invocations across all sims.
};

/// Add every spec, then run; results come back in add order.  Not
/// thread-safe: run_fleet_sharded gives each worker its own engine.
class FleetEngine {
 public:
  explicit FleetEngine(FleetOptions options = {});
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Registers one simulation; returns its index (== result slot).
  std::size_t add(SimSpec spec);

  /// Runs every added spec; results in add order.  A throwing sim
  /// aborts with the lowest-index failing sim's exception (run_batch
  /// semantics).  Stats are overwritten per call; calling again re-runs
  /// the same specs and returns identical results.
  std::vector<core::SimulationResult> run_all();

  /// run_all with per-sim fault isolation: a throwing sim yields a
  /// JobOutcome carrying its error text instead of aborting the batch
  /// (runner::run_batch_isolated semantics).  Later sims rebind the
  /// lane from scratch, so a failure cannot perturb them.
  std::vector<runner::JobOutcome<core::SimulationResult>> run_outcomes();

  /// Counters of the most recent run_* call.
  const FleetStats& stats() const { return stats_; }

  /// Moves out the per-spec exception_ptrs of the last run (null on
  /// success): the sharded runner rethrows the lowest-index one with
  /// its original type after a fan-out, matching run_all.
  std::vector<std::exception_ptr> take_errors() { return std::move(errors_); }

 private:
  std::vector<SimSpec> specs_;

  /// Per-spec work done once at add(): the SimState::prepare verdict,
  /// so a rebound lane skips validation and the eligibility probe, and
  /// Rng::warmed_engine(options.seed), restored on every bind to skip
  /// the ~2us mt19937_64 seed expansion (the largest fixed cost).
  struct Prep {
    std::int64_t hyperperiod = 0;  ///< 0 = cycle-ineligible.
    std::exception_ptr error;      ///< Validation failure: never binds.
    std::mt19937_64 rng;
  };
  std::vector<Prep> preps_;

  /// The one lane every spec runs on; unique_ptr keeps SimState
  /// incomplete in this header.
  std::unique_ptr<core::SimState> lane_;

  std::vector<std::exception_ptr> errors_;  ///< See take_errors().

  FleetStats stats_;
};

/// True iff LPFPS_FLEET opts the process into fleet-routed sweeps (set
/// and not "0"/"off"/"false"; re-read per call so tests can toggle it).
bool enabled();

/// One-call convenience: run `specs` through one FleetEngine on the
/// calling thread.
std::vector<core::SimulationResult> run_fleet(std::vector<SimSpec> specs,
                                              const FleetOptions& options = {});

/// run_fleet with per-sim fault isolation (JobOutcome per spec).
std::vector<runner::JobOutcome<core::SimulationResult>> run_fleet_isolated(
    std::vector<SimSpec> specs, const FleetOptions& options = {});

/// Sharded fleet: contiguous positional shards, one FleetEngine per
/// `runner::ThreadPool` worker.  Every spec carries its own seed and
/// the shard boundaries depend only on (spec count, worker count), so
/// N-worker output is byte-identical to run_fleet: results in spec
/// order, a failure surfacing as the lowest-spec-index exception.
/// `threads == 0` means runner::default_job_count() (LPFPS_JOBS);
/// `threads <= 1` runs one shard on the calling thread.
std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& options = {},
    std::size_t threads = 0);

/// run_fleet_sharded with per-sim fault isolation (JobOutcome per
/// spec, runner::run_batch_isolated semantics).
std::vector<runner::JobOutcome<core::SimulationResult>>
run_fleet_sharded_isolated(std::vector<SimSpec> specs,
                           const FleetOptions& options = {},
                           std::size_t threads = 0);

}  // namespace lpfps::fleet
