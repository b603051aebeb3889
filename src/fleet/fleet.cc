#include "fleet/fleet.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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

/// Runs `specs` as contiguous shards, one FleetEngine each: shard k
/// owns specs [k * chunk, (k + 1) * chunk), a pure function of (spec
/// count, thread count).  A single shard runs on the calling thread.
/// Returns outcomes in spec order; `errors` receives their exceptions.
/// `visit` sees spec-list indices: each shard offsets its engine's.
Outcomes run_shards(std::vector<SimSpec>& specs, const FleetOptions& options,
                    std::size_t threads, const ResultVisitor& visit,
                    std::vector<std::exception_ptr>& errors) {
  if (threads == 0) threads = runner::default_job_count();
  const std::size_t shards =
      std::max<std::size_t>(std::min(threads, specs.size()), 1);
  const std::size_t chunk = (specs.size() + shards - 1) / shards;
  // run_outcomes never throws, as run_batch jobs must not.  Moving
  // from the shared spec vector is safe: shards own disjoint ranges.
  auto run_shard = [&](std::size_t shard) {
    FleetEngine engine(options);
    const std::size_t begin = shard * chunk;
    const std::size_t end = std::min(specs.size(), begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      engine.add(std::move(specs[i]));
    }
    ResultVisitor shard_visit;
    if (visit) {
      shard_visit = [&visit, begin](std::size_t i, const SimSpec& spec,
                                    const core::SimulationResult& result) {
        return visit(begin + i, spec, result);
      };
    }
    Outcomes outcomes = engine.run_outcomes(shard_visit);
    return std::make_pair(std::move(outcomes), engine.take_errors());
  };
  Outcomes outcomes;
  outcomes.reserve(specs.size());
  errors.clear();
  for (auto& [shard_outcomes, shard_errors] :
       runner::run_batch(shards, run_shard, shards)) {
    for (auto& outcome : shard_outcomes) outcomes.push_back(std::move(outcome));
    errors.insert(errors.end(), shard_errors.begin(), shard_errors.end());
  }
  return outcomes;
}

}  // namespace

bool enabled() {
  const char* value = std::getenv("LPFPS_FLEET");
  if (value == nullptr) return false;
  return std::strcmp(value, "") != 0 && std::strcmp(value, "0") != 0 &&
         std::strcmp(value, "off") != 0 && std::strcmp(value, "false") != 0;
}

FleetEngine::FleetEngine(FleetOptions /*options*/) {}

FleetEngine::~FleetEngine() = default;

std::size_t FleetEngine::add(SimSpec spec) {
  const SimSpec& stored = specs_.emplace_back(std::move(spec));
  Prep prep{0, nullptr, Rng::warmed_engine(stored.options.seed)};
  try {
    const core::SimState::SpecPrep verdict =
        core::SimState::prepare(stored.tasks, stored.processor, stored.policy,
                                stored.exec_model, stored.options);
    prep.hyperperiod = verdict.cycle_eligible ? verdict.hyperperiod : 0;
  } catch (...) {
    prep.error = std::current_exception();
  }
  preps_.push_back(std::move(prep));
  return specs_.size() - 1;
}

std::vector<runner::JobOutcome<core::SimulationResult>>
FleetEngine::run_outcomes(const ResultVisitor& visit) {
  stats_ = FleetStats{};
  stats_.sims = specs_.size();
  Outcomes outcomes(specs_.size());
  errors_.assign(specs_.size(), nullptr);

  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SimSpec& spec = specs_[i];
    const Prep& prep = preps_[i];
    try {
      // A spec that failed validation at add() time never binds the
      // lane: run() would throw the identical error.
      if (prep.error) std::rethrow_exception(prep.error);
      if (lane_ == nullptr) {
        lane_ = std::make_unique<core::SimState>(
            spec.tasks, spec.processor, spec.policy, spec.exec_model,
            spec.options, &prep.rng);
        ++stats_.lane_constructions;
      } else {
        lane_->reset(spec.tasks, spec.processor, spec.policy,
                     spec.exec_model, spec.options, &prep.rng);
        ++stats_.lane_rebinds;
      }
      const core::SimState::SpecPrep verdict{prep.hyperperiod != 0,
                                             prep.hyperperiod};
      core::SimulationResult& result =
          outcomes[i].result.emplace(lane_->run(&verdict));
      if (visit && !visit(i, spec, result) && result.trace) {
        lane_->recycle_trace(std::move(*result.trace));
        result.trace.reset();
      }
      stats_.events += result.scheduler_invocations;
    } catch (...) {
      // The sim (or the visitor) threw: deadline miss, livelock guard,
      // ...  The lane is left mid-run — harmless, the next spec
      // reset()s it.
      outcomes[i].result.reset();
      errors_[i] = std::current_exception();
      outcomes[i].error = describe(errors_[i]);
    }
  }
  return outcomes;
}

std::vector<core::SimulationResult> FleetEngine::run_all() {
  return results_or_rethrow(run_outcomes(), errors_);
}

std::vector<core::SimulationResult> run_fleet_sharded(
    std::vector<SimSpec> specs, const FleetOptions& options,
    std::size_t threads, const ResultVisitor& visit) {
  std::vector<std::exception_ptr> errors;
  Outcomes outcomes = run_shards(specs, options, threads, visit, errors);
  return results_or_rethrow(std::move(outcomes), errors);
}

std::vector<runner::JobOutcome<core::SimulationResult>>
run_fleet_sharded_isolated(std::vector<SimSpec> specs,
                           const FleetOptions& options, std::size_t threads) {
  std::vector<std::exception_ptr> errors;
  return run_shards(specs, options, threads, {}, errors);
}

std::vector<core::SimulationResult> run_fleet(std::vector<SimSpec> specs,
                                              const FleetOptions& options) {
  return run_fleet_sharded(std::move(specs), options, 1);
}

std::vector<runner::JobOutcome<core::SimulationResult>> run_fleet_isolated(
    std::vector<SimSpec> specs, const FleetOptions& options) {
  return run_fleet_sharded_isolated(std::move(specs), options, 1);
}

}  // namespace lpfps::fleet
