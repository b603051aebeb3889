// Fleet engine: many small independent simulations on reused lanes.
//
// Sweeps (random tasksets, fault magnitudes, policy ablations) are loops
// of independent, tiny simulations whose per-sim setup (Engine copies,
// buffer allocations) rivals their event work.  A *lane* is one
// SimState that runs spec after spec: constructed for its first spec,
// rebound for every later one (SimState::reset keeps every buffer's
// capacity), then run() exactly as core::simulate runs it —
// validation and the cycle-eligibility probe included.
//
// **Bit-identity.**  A lane runs SimState::run, the code
// `core::Engine::run` runs, and a reset lane equals a fresh one, so
// every result (CSV row, trace, audit report) is bit-identical to a
// serial `core::simulate` of the same spec, whichever lane ran it;
// tests/fleet/ pins this and docs/FLEET.md has the argument and the
// cost.  Any spec `simulate` accepts is eligible, invocation hooks
// included, except that specs sharing one exec::TraceDrivenModel
// instance must not be batched (mutable replay cursors, as for the
// parallel runner).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
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

/// Per-result visitor of a run: called on the thread running the lane,
/// right after spec `index` (its position in the call's spec list)
/// finishes without throwing, with the stored spec and its result.
/// Returns true when the caller keeps `result.trace`; false hands the
/// trace's buffers back to the lane, so the next sim records into them,
/// and the result comes back without a trace.  A throwing visitor fails
/// its spec as a throwing sim would.  Sharded runs call it concurrently
/// from every worker, each index once.
using ResultVisitor = std::function<bool(
    std::size_t index, const SimSpec& spec,
    const core::SimulationResult& result)>;

/// Add every spec, then run them in add order on one lane; results
/// come back in add order.  Not thread-safe: run_fleet_sharded gives
/// each worker its own lane.
class FleetEngine {
 public:
  FleetEngine();
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
  /// lane from scratch, so a failure cannot perturb them.  `visit`, when
  /// set, sees every successful result (indices are add() indices).
  std::vector<runner::JobOutcome<core::SimulationResult>> run_outcomes(
      const ResultVisitor& visit = {});

  /// Counters of the most recent run_* call.
  const FleetStats& stats() const { return stats_; }

 private:
  std::vector<SimSpec> specs_;

  /// The one lane every spec runs on; unique_ptr keeps SimState
  /// incomplete in this header.
  std::unique_ptr<core::SimState> lane_;

  std::vector<std::exception_ptr> errors_;  ///< Per spec, null on success.

  FleetStats stats_;
};

/// Sharded fleet: `threads` workers, each with its own lane, claim the
/// next unclaimed spec index until none are left, so a long spec never
/// holds up the short ones queued behind it.  Every spec carries its
/// own seed and a lane's output does not depend on what it ran before,
/// so the output is byte-identical for any worker count: results in
/// spec order, a failure surfacing as the lowest-spec-index exception
/// with its original type.  `threads == 0` means
/// runner::default_job_count() (LPFPS_JOBS); `threads <= 1` runs on
/// the calling thread.  `visit`, when set, runs on the worker after
/// each successful sim (ResultVisitor).
std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& options = {},
    std::size_t threads = 0, const ResultVisitor& visit = {});

/// run_fleet_sharded with per-sim fault isolation (JobOutcome per
/// spec, runner::run_batch_isolated semantics).
std::vector<runner::JobOutcome<core::SimulationResult>>
run_fleet_sharded_isolated(std::vector<SimSpec> specs,
                           const FleetOptions& options = {},
                           std::size_t threads = 0);

}  // namespace lpfps::fleet
