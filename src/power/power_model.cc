#include "power/power_model.h"

#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/math_utils.h"

namespace lpfps::power {

PowerModel::PowerModel(VoltageModelPtr voltage, PowerParams params)
    : voltage_(std::move(voltage)), params_(params) {
  LPFPS_CHECK(voltage_ != nullptr);
  LPFPS_CHECK(params_.nop_power_fraction > 0.0 &&
              params_.nop_power_fraction <= 1.0);
  LPFPS_CHECK(params_.power_down_fraction >= 0.0 &&
              params_.power_down_fraction <= 1.0);
  LPFPS_CHECK(params_.wakeup_cycles >= 0.0);
}

double PowerModel::run_power(Ratio ratio) const {
  return voltage_->power_factor(ratio);
}

double PowerModel::idle_nop_power(Ratio ratio) const {
  return params_.nop_power_fraction * run_power(ratio);
}

double PowerModel::power_down_power() const {
  return params_.power_down_fraction;
}

Energy PowerModel::ramp_energy(Ratio r0, Ratio r1, double rho,
                               bool executing) const {
  LPFPS_CHECK(rho > 0.0);
  const auto b0 = std::bit_cast<std::uint64_t>(r0);
  const auto b1 = std::bit_cast<std::uint64_t>(r1);
  const std::uint64_t rho_key = std::bit_cast<std::uint64_t>(rho) |
                                (executing ? std::uint64_t{1} << 63 : 0);
  // Rotate so equal words cancel in no bit position, then a full 64-bit
  // finalizer (MurmurHash3's fmix64): exact ratios such as 0.5 carry
  // all-zero low mantissa bits, so the slot comes from the top bits.
  std::uint64_t h = b0 ^ std::rotl(b1, 21) ^ std::rotl(rho_key, 42);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  RampMemoEntry& slot = ramp_memo_[h >> (64 - kRampMemoBits)];
  if (slot.r0 == b0 && slot.r1 == b1 && slot.rho_key == rho_key) {
    return slot.energy;
  }
  const Energy energy = integrate_ramp(r0, r1, rho, executing);
  slot = {b0, b1, rho_key, energy};
  return energy;
}

Energy PowerModel::integrate_ramp(Ratio r0, Ratio r1, double rho,
                                  bool executing) const {
  const double duration = std::fabs(r1 - r0) / rho;
  if (duration == 0.0) return 0.0;
  const double scale = executing ? 1.0 : params_.nop_power_fraction;
  const auto integrand = [&](double t) {
    const Ratio r = r0 + (r1 - r0) * (t / duration);
    return scale * run_power(r);
  };
  return integrate_simpson(integrand, 0.0, duration, 64);
}

Time PowerModel::wakeup_delay(MegaHertz f_max) const {
  LPFPS_CHECK(f_max > 0.0);
  return params_.wakeup_cycles / f_max;  // cycles / (cycles per us).
}

}  // namespace lpfps::power
