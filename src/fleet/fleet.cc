#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/sim_state.h"

namespace lpfps::fleet {

namespace {

using Outcomes = std::vector<runner::JobOutcome<core::SimulationResult>>;

/// Error text for an exception_ptr, matching run_batch_isolated's
/// wording so fleet and runner outcomes read identically.
std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    std::string text = e.what();
    return text.empty() ? "exception" : text;
  } catch (...) {
    return "unknown exception";
  }
}

/// Unwraps outcomes into results, rethrowing the lowest-index failure
/// with its original exception type (run_batch semantics).
std::vector<core::SimulationResult> results_or_rethrow(
    Outcomes outcomes, const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<core::SimulationResult> results;
  results.reserve(outcomes.size());
  for (auto& outcome : outcomes) {
    LPFPS_CHECK(outcome.ok());
    results.push_back(std::move(*outcome.result));
  }
  return results;
}

/// Runs `spec`, spec-list position `index`, on `lane`: constructs the
/// lane for its first spec and rebinds it for every later one, then
/// runs it as core::simulate would (validation included).  Never
/// throws: a failing sim or visitor lands in `outcome` and `error`.
void run_on_lane(std::unique_ptr<core::SimState>& lane, const SimSpec& spec,
                 std::size_t index, const ResultVisitor& visit,
                 runner::JobOutcome<core::SimulationResult>& outcome,
                 std::exception_ptr& error, FleetStats& stats) {
  try {
    if (lane == nullptr) {
      lane = std::make_unique<core::SimState>(spec.tasks, spec.processor,
                                              spec.policy, spec.exec_model,
                                              spec.options);
      ++stats.lane_constructions;
    } else {
      lane->reset(spec.tasks, spec.processor, spec.policy, spec.exec_model,
                  spec.options);
      ++stats.lane_rebinds;
    }
    core::SimulationResult& result = outcome.result.emplace(lane->run());
    if (visit && !visit(index, spec, result) && result.trace) {
      lane->recycle_trace(std::move(*result.trace));
      result.trace.reset();
    }
    stats.events += result.scheduler_invocations;
  } catch (...) {
    // The spec failed validation, the sim threw (deadline miss,
    // livelock guard, ...) or the visitor did.  The lane may be left
    // mid-run — harmless, the next spec reset()s it.
    outcome.result.reset();
    error = std::current_exception();
    outcome.error = describe(error);
  }
}

/// Runs `specs` on min(threads, specs) workers, one lane each; every
/// worker claims the next unclaimed index until none are left, so how
/// the specs split across lanes depends on timing but no result does.
/// One worker runs on the calling thread.  Returns outcomes in spec
/// order; `errors` receives their exceptions (null on success).
Outcomes run_workers(const std::vector<SimSpec>& specs, std::size_t threads,
                     const ResultVisitor& visit,
                     std::vector<std::exception_ptr>& errors) {
  if (threads == 0) threads = runner::default_job_count();
  const std::size_t workers =
      std::max<std::size_t>(std::min(threads, specs.size()), 1);
  Outcomes outcomes(specs.size());
  errors.assign(specs.size(), nullptr);
  std::atomic<std::size_t> next{0};
  // Workers write disjoint outcome/error slots; run_batch's join
  // publishes them to this thread.  run_on_lane never throws, as
  // run_batch jobs must not, and run_batch jobs must return a value.
  const auto worker = [&](std::size_t) {
    std::unique_ptr<core::SimState> lane;
    FleetStats stats;
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      run_on_lane(lane, specs[i], i, visit, outcomes[i], errors[i], stats);
    }
    return 0;
  };
  (void)runner::run_batch(workers, worker, workers);
  return outcomes;
}

}  // namespace

FleetEngine::FleetEngine() = default;

FleetEngine::~FleetEngine() = default;

std::size_t FleetEngine::add(SimSpec spec) {
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::vector<runner::JobOutcome<core::SimulationResult>>
FleetEngine::run_outcomes(const ResultVisitor& visit) {
  stats_ = FleetStats{};
  stats_.sims = specs_.size();
  Outcomes outcomes(specs_.size());
  errors_.assign(specs_.size(), nullptr);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    run_on_lane(lane_, specs_[i], i, visit, outcomes[i], errors_[i], stats_);
  }
  return outcomes;
}

std::vector<core::SimulationResult> FleetEngine::run_all() {
  return results_or_rethrow(run_outcomes(), errors_);
}

std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& /*options*/,
    std::size_t threads, const ResultVisitor& visit) {
  std::vector<std::exception_ptr> errors;
  Outcomes outcomes = run_workers(specs, threads, visit, errors);
  return results_or_rethrow(std::move(outcomes), errors);
}

std::vector<runner::JobOutcome<core::SimulationResult>>
run_fleet_sharded_isolated(std::vector<SimSpec> specs,
                           const FleetOptions& /*options*/,
                           std::size_t threads) {
  std::vector<std::exception_ptr> errors;
  return run_workers(specs, threads, {}, errors);
}

}  // namespace lpfps::fleet
