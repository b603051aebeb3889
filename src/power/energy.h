// Energy accounting over a simulation run.
//
// The accumulator receives every processor interval the engine produces
// (runs, ramps, NOP idling, power-down, wake-up) and integrates the power
// model over it, keeping a per-mode breakdown so benches can report where
// the energy went (the paper's §4 discussion of *why* INS wins relies on
// exactly this breakdown).
#pragma once

#include <array>

#include "common/units.h"
#include "power/power_model.h"
#include "sim/trace.h"

namespace lpfps::power {

/// Energy and wall-time attributed to one processor mode.
struct ModeTotals {
  Energy energy = 0.0;
  Time time = 0.0;
  /// Charged intervals folded into this slot — the observability
  /// layer's per-mode event counter (e.g. how many distinct run bursts
  /// the accumulator saw, before trace-level merging).
  std::int64_t intervals = 0;
};

class EnergyAccumulator {
 public:
  explicit EnergyAccumulator(const PowerModel* model);

  // Each add_* returns the energy it computed, so callers that also book
  // it elsewhere (per-task totals, the cycle template) never evaluate the
  // power model a second time.

  /// Task execution at constant speed.
  Energy add_run(Time duration, Ratio ratio);

  /// Task execution during a frequency/voltage ramp (linear in time).
  Energy add_run_ramp(Time duration, Ratio from, Ratio to, double rho);

  /// Busy-wait NOP idling at constant speed.
  Energy add_idle_nop(Time duration, Ratio ratio);

  /// Ramp with nothing to execute (the processor spins NOPs while the
  /// voltage settles).
  Energy add_idle_ramp(Time duration, Ratio from, Ratio to, double rho);

  /// Power-down residence at the model's default power-down fraction.
  Energy add_power_down(Time duration);

  /// Power-down residence in a specific sleep state (fraction of full
  /// power); used with sleep-state hierarchies.
  Energy add_power_down(Time duration, double power_fraction);

  /// Wake-up transition (full power, no useful work).
  Energy add_wakeup(Time duration);

  /// Re-charges an interval whose energy a previous add_* call already
  /// computed (the engine's steady-state replay).  Identical guard and
  /// addition sequence as the original call, without re-evaluating the
  /// power model — `energy` must be the value that call charged.
  void charge_replay(sim::ProcessorMode mode, Time duration,
                     Energy energy) {
    charge(mode, duration, energy);
  }

  Energy total_energy() const;
  Time total_time() const;

  /// Average power = total energy / total time (0 if no time elapsed).
  double average_power() const;

  const ModeTotals& totals(sim::ProcessorMode mode) const;

 private:
  void charge(sim::ProcessorMode mode, Time duration, Energy energy);

  const PowerModel* model_;
  std::array<ModeTotals, 5> by_mode_{};
};

}  // namespace lpfps::power
