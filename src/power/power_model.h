// Normalized processor power model.
//
// All powers are fractions of "full power" — the power drawn when
// executing typical instructions at (f_max, V_max).  The paper's
// experimental assumptions (§4):
//   * a NOP (busy-wait idle) instruction draws 20% of a typical
//     instruction [19];
//   * power-down mode draws 5% of full power, and returning from it
//     takes 10 clock cycles [9, 19];
//   * the clock/voltage transition follows the ring-oscillator model of
//     [20] with a worst-case delay of ~10 us (rate rho = 0.07 / us).
//
// A PowerModel memoizes ramp energies, so it is one-per-owner: every
// SimState and every audit run builds its own, and an instance is never
// shared across threads.  Copies carry their own table.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/units.h"
#include "power/voltage.h"

namespace lpfps::power {

struct PowerParams {
  /// NOP power as a fraction of a typical instruction at the same (f, V).
  double nop_power_fraction = 0.2;
  /// Power-down mode power as a fraction of full power.
  double power_down_fraction = 0.05;
  /// Clock cycles (at f_max) needed to return from power-down.
  double wakeup_cycles = 10.0;
};

/// One member of a sleep-state hierarchy (paper §2.1 describes the
/// PowerPC 603's four modes: each deeper state gates more of the chip
/// but takes longer to wake).  Power is a fraction of full power;
/// wake-up latency is in cycles at f_max.
struct SleepState {
  const char* name = "sleep";
  double power_fraction = 0.05;
  double wakeup_cycles = 10.0;
};

class PowerModel {
 public:
  PowerModel(VoltageModelPtr voltage, PowerParams params);

  /// Power while executing task work at normalized speed `ratio`:
  /// ratio * (V(ratio)/Vmax)^2.  run_power(1) == 1 by construction.
  double run_power(Ratio ratio) const;

  /// Power while busy-waiting on NOPs at normalized speed `ratio`.
  double idle_nop_power(Ratio ratio) const;

  /// Power while in power-down mode (independent of frequency).
  double power_down_power() const;

  /// Energy of one ramp from ratio r0 to r1 at rate `rho` (ratio units
  /// per microsecond).  `executing` selects run power (a task computes
  /// through the transition) vs NOP power (nothing to run).  Integrated
  /// numerically because V(ratio) has no convenient antiderivative for
  /// the ring-oscillator model.  Memoized on the exact bits of the
  /// arguments in a small direct-mapped table: a miss runs the
  /// integration, a hit returns the value that integration produced, so
  /// the result never depends on the table's contents.  Not thread-safe
  /// (the table is mutable state).
  Energy ramp_energy(Ratio r0, Ratio r1, double rho, bool executing) const;

  /// Time to return from power-down, in microseconds, at f_max (MHz).
  Time wakeup_delay(MegaHertz f_max) const;

  const PowerParams& params() const { return params_; }
  const VoltageModel& voltage() const { return *voltage_; }

 private:
  /// One memoized ramp.  `rho_key` is rho's bit pattern with the
  /// `executing` flag in the sign bit (rho > 0, so the bit is free); a
  /// zero key never matches a query, which marks the slot empty.
  struct RampMemoEntry {
    std::uint64_t r0 = 0;
    std::uint64_t r1 = 0;
    std::uint64_t rho_key = 0;
    Energy energy = 0.0;
  };
  /// 128 slots (4 KiB) keep the table small beside a fleet lane's state
  /// while catching the repeating down/up ramps of periodic schedules.
  static constexpr int kRampMemoBits = 7;
  static constexpr std::size_t kRampMemoSlots = std::size_t{1}
                                                << kRampMemoBits;

  Energy integrate_ramp(Ratio r0, Ratio r1, double rho, bool executing) const;

  VoltageModelPtr voltage_;
  PowerParams params_;
  mutable std::array<RampMemoEntry, kRampMemoSlots> ramp_memo_{};
};

}  // namespace lpfps::power
