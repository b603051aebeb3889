#include "power/energy.h"

#include "common/check.h"
#include "common/float_compare.h"
#include "power/speed_profile.h"

namespace lpfps::power {

EnergyAccumulator::EnergyAccumulator(const PowerModel* model)
    : model_(model) {
  LPFPS_CHECK(model_ != nullptr);
}

void EnergyAccumulator::charge(sim::ProcessorMode mode, Time duration,
                               Energy energy) {
  LPFPS_CHECK(duration >= -kTimeEpsilon);
  if (duration <= 0.0) return;
  auto& slot = by_mode_[static_cast<std::size_t>(mode)];
  slot.time += duration;
  slot.energy += energy;
  ++slot.intervals;
}

Energy EnergyAccumulator::add_run(Time duration, Ratio ratio) {
  const Energy energy = duration * model_->run_power(ratio);
  charge(sim::ProcessorMode::kRunning, duration, energy);
  return energy;
}

Energy EnergyAccumulator::add_run_ramp(Time duration, Ratio from, Ratio to,
                                       double rho) {
  LPFPS_CHECK(approx_equal(duration, ramp_duration(from, to, rho),
                           1e-6 + duration * 1e-9));
  const Energy energy = model_->ramp_energy(from, to, rho, /*executing=*/true);
  charge(sim::ProcessorMode::kRunning, duration, energy);
  return energy;
}

Energy EnergyAccumulator::add_idle_nop(Time duration, Ratio ratio) {
  const Energy energy = duration * model_->idle_nop_power(ratio);
  charge(sim::ProcessorMode::kIdleBusyWait, duration, energy);
  return energy;
}

Energy EnergyAccumulator::add_idle_ramp(Time duration, Ratio from, Ratio to,
                                        double rho) {
  LPFPS_CHECK(approx_equal(duration, ramp_duration(from, to, rho),
                           1e-6 + duration * 1e-9));
  const Energy energy =
      model_->ramp_energy(from, to, rho, /*executing=*/false);
  charge(sim::ProcessorMode::kRamping, duration, energy);
  return energy;
}

Energy EnergyAccumulator::add_power_down(Time duration) {
  return add_power_down(duration, model_->power_down_power());
}

Energy EnergyAccumulator::add_power_down(Time duration,
                                         double power_fraction) {
  LPFPS_CHECK(power_fraction >= 0.0 && power_fraction <= 1.0);
  const Energy energy = duration * power_fraction;
  charge(sim::ProcessorMode::kPowerDown, duration, energy);
  return energy;
}

Energy EnergyAccumulator::add_wakeup(Time duration) {
  const Energy energy = duration * 1.0;
  charge(sim::ProcessorMode::kWakeUp, duration, energy);
  return energy;
}

Energy EnergyAccumulator::total_energy() const {
  Energy total = 0.0;
  for (const ModeTotals& slot : by_mode_) total += slot.energy;
  return total;
}

Time EnergyAccumulator::total_time() const {
  Time total = 0.0;
  for (const ModeTotals& slot : by_mode_) total += slot.time;
  return total;
}

double EnergyAccumulator::average_power() const {
  const Time t = total_time();
  if (t <= 0.0) return 0.0;
  return total_energy() / t;
}

const ModeTotals& EnergyAccumulator::totals(sim::ProcessorMode mode) const {
  return by_mode_[static_cast<std::size_t>(mode)];
}

}  // namespace lpfps::power
