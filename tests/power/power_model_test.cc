#include "power/power_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "power/processor.h"

namespace lpfps::power {
namespace {

PowerModel paper_model() {
  return ProcessorConfig::arm8_default().make_power_model();
}

TEST(PowerModel, FullSpeedRunPowerIsUnity) {
  EXPECT_NEAR(paper_model().run_power(1.0), 1.0, 1e-9);
}

TEST(PowerModel, NopIdleIsTwentyPercentOfRun) {
  const PowerModel model = paper_model();
  EXPECT_NEAR(model.idle_nop_power(1.0), 0.2, 1e-9);
  EXPECT_NEAR(model.idle_nop_power(0.5), 0.2 * model.run_power(0.5), 1e-12);
}

TEST(PowerModel, PowerDownIsFivePercent) {
  EXPECT_NEAR(paper_model().power_down_power(), 0.05, 1e-12);
}

TEST(PowerModel, WakeupDelayIsTenCyclesAt100MHz) {
  // 10 cycles / 100 MHz = 0.1 us.
  EXPECT_NEAR(paper_model().wakeup_delay(100.0), 0.1, 1e-12);
}

TEST(PowerModel, RampEnergyBetweenEndpointBounds) {
  const PowerModel model = paper_model();
  const double rho = 0.07;
  const double duration = (1.0 - 0.5) / rho;
  const Energy energy = model.ramp_energy(0.5, 1.0, rho, true);
  EXPECT_GT(energy, duration * model.run_power(0.5));
  EXPECT_LT(energy, duration * model.run_power(1.0));
}

TEST(PowerModel, RampEnergySymmetricInDirection) {
  const PowerModel model = paper_model();
  EXPECT_NEAR(model.ramp_energy(0.3, 0.9, 0.07, true),
              model.ramp_energy(0.9, 0.3, 0.07, true), 1e-9);
}

TEST(PowerModel, IdleRampIsNopScaled) {
  const PowerModel model = paper_model();
  EXPECT_NEAR(model.ramp_energy(0.4, 1.0, 0.07, false),
              0.2 * model.ramp_energy(0.4, 1.0, 0.07, true), 1e-9);
}

TEST(PowerModel, ZeroLengthRampCostsNothing) {
  EXPECT_DOUBLE_EQ(paper_model().ramp_energy(0.7, 0.7, 0.07, true), 0.0);
}

TEST(PowerModel, SlowerIsAlwaysCheaperPerUnitTime) {
  const PowerModel model = paper_model();
  double prev = 0.0;
  for (double r = 0.08; r <= 1.0; r += 0.01) {
    const double p = model.run_power(r);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(PowerModel, HalfSpeedBeatsFullSpeedPerUnitWork) {
  // Energy per unit of work at ratio r is run_power(r) / r; DVS wins
  // only because voltage drops too.  Verify the energy-per-work gain.
  const PowerModel model = paper_model();
  const double full = model.run_power(1.0) / 1.0;
  const double half = model.run_power(0.5) / 0.5;
  EXPECT_LT(half, full);
}

// ---- ramp-energy memo ---------------------------------------------------

struct RampKey {
  Ratio r0;
  Ratio r1;
  double rho;
  bool executing;
};

/// Many more keys than the memo has slots (so every slot is evicted and
/// refilled), with neighbours one ulp apart that must never alias.
std::vector<RampKey> ramp_key_grid() {
  const Ratio ratios[] = {0.08, 0.1, 0.3, 0.5, std::nextafter(0.5, 1.0),
                          0.7, std::nextafter(1.0, 0.0), 1.0};
  const double rhos[] = {0.07, std::nextafter(0.07, 1.0), 0.0035, 7.0};
  std::vector<RampKey> keys;
  for (const double rho : rhos) {
    for (const Ratio r0 : ratios) {
      for (const Ratio r1 : ratios) {
        keys.push_back({r0, r1, rho, true});
        keys.push_back({r0, r1, rho, false});
      }
    }
  }
  return keys;
}

/// A fresh model's first evaluation: always the integration itself.
Energy cold_ramp_energy(const RampKey& k) {
  return paper_model().ramp_energy(k.r0, k.r1, k.rho, k.executing);
}

bool same_bits(Energy a, Energy b) {
  return std::memcmp(&a, &b, sizeof(Energy)) == 0;
}

TEST(PowerModelMemo, RepeatsAndCollisionsAreBitIdenticalToColdEvaluation) {
  const std::vector<RampKey> keys = ramp_key_grid();
  ASSERT_GT(keys.size(), 256u);
  std::vector<Energy> cold;
  for (const RampKey& k : keys) cold.push_back(cold_ramp_energy(k));

  const PowerModel model = paper_model();
  // Forward, backward, then forward twice more: every order of
  // evictions and repeats must return the cold value exactly.
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t n = 0; n < keys.size(); ++n) {
      const std::size_t i = pass == 1 ? keys.size() - 1 - n : n;
      const RampKey& k = keys[i];
      const Energy hot = model.ramp_energy(k.r0, k.r1, k.rho, k.executing);
      ASSERT_TRUE(same_bits(hot, cold[i]))
          << "pass " << pass << " key " << i << ": " << hot << " vs "
          << cold[i];
      // An immediate repeat is a guaranteed hit.
      ASSERT_TRUE(same_bits(
          model.ramp_energy(k.r0, k.r1, k.rho, k.executing), cold[i]));
    }
  }
}

/// Counts the voltage evaluations behind each power_factor call, so a
/// test can see whether ramp_energy integrated or hit the memo.
class CountingVoltageModel final : public VoltageModel {
 public:
  Volts voltage_for_ratio(Ratio ratio) const override {
    ++calls;
    return inner_.voltage_for_ratio(ratio);
  }
  Volts v_max() const override { return inner_.v_max(); }

  mutable long calls = 0;

 private:
  RingOscillatorVoltageModel inner_;
};

TEST(PowerModelMemo, CopiesOwnTheirTable) {
  const auto voltage = std::make_shared<CountingVoltageModel>();
  const PowerModel original(voltage, PowerParams{});
  const auto integrations = [&](const PowerModel& model, Ratio r0, Ratio r1) {
    const long before = voltage->calls;
    const Energy energy = model.ramp_energy(r0, r1, 0.07, true);
    const long used = voltage->calls - before;
    const PowerModel fresh(voltage, PowerParams{});
    EXPECT_TRUE(same_bits(energy, fresh.ramp_energy(r0, r1, 0.07, true)));
    return used;
  };

  ASSERT_GT(integrations(original, 0.5, 1.0), 0);
  EXPECT_EQ(integrations(original, 0.5, 1.0), 0);  // Memo hit.

  PowerModel copy = original;
  EXPECT_EQ(integrations(copy, 0.5, 1.0), 0);  // The copy inherited it.
  // Flood the copy's table: its entries churn, the original's do not.
  for (const RampKey& k : ramp_key_grid()) {
    copy.ramp_energy(k.r0, k.r1, k.rho, k.executing);
  }
  EXPECT_GT(integrations(copy, 0.2, 0.9), 0);
  EXPECT_GT(integrations(original, 0.2, 0.9), 0);  // Not shared.
  EXPECT_EQ(integrations(original, 0.5, 1.0), 0);  // Not corrupted.
}

TEST(ProcessorConfig, DefaultsMatchPaperSection4) {
  const ProcessorConfig config = ProcessorConfig::arm8_default();
  EXPECT_DOUBLE_EQ(config.frequencies.f_max(), 100.0);
  EXPECT_DOUBLE_EQ(config.frequencies.f_min(), 8.0);
  EXPECT_DOUBLE_EQ(config.ramp_rate, 0.07);
  EXPECT_DOUBLE_EQ(config.power.nop_power_fraction, 0.2);
  EXPECT_DOUBLE_EQ(config.power.power_down_fraction, 0.05);
  EXPECT_DOUBLE_EQ(config.power.wakeup_cycles, 10.0);
  EXPECT_NEAR(config.wakeup_delay(), 0.1, 1e-12);
  EXPECT_NO_THROW(config.validate());
}

TEST(ProcessorConfig, PaperTransitionExample) {
  // "the clock frequency can be raised from 30 MHz to 100 MHz in 10 us"
  // => rho = 0.07 / us.
  const ProcessorConfig config = ProcessorConfig::arm8_default();
  const double duration = (1.0 - 0.3) / config.ramp_rate;
  EXPECT_NEAR(duration, 10.0, 1e-9);
}

}  // namespace
}  // namespace lpfps::power
