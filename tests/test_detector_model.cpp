#include "ids/detector_model.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "core/params.h"
#include "sim/des.h"

namespace {

using namespace midas::ids;

DetectorState state(std::int64_t compromised, std::int64_t evicted,
                    std::int64_t population, double elapsed_s) {
  DetectorState s;
  s.compromised = compromised;
  s.evicted = evicted;
  s.population = population;
  s.elapsed_s = elapsed_s;
  return s;
}

// --- Static: the bitwise-identity anchor of the whole refactor.

TEST(DetectorModel, StaticReturnsBaseRatesBitwise) {
  DetectorModel model;  // kind defaults to Static
  // Values with no short representation: any rounding or arithmetic
  // (even +0.0 in the wrong direction) would show up.
  const double p1 = 0.1234567890123456789;
  const double p2 = 0.9876543210987654321;
  for (const auto& s :
       {state(0, 0, 100, 0.0), state(37, 12, 51, 1e6),
        state(100, 0, 100, 3.5e7)}) {
    const auto eff = model.effective(p1, p2, s);
    EXPECT_EQ(eff.p1, p1);
    EXPECT_EQ(eff.p2, p2);
  }
}

TEST(DetectorModel, StaticIsNotStateDependentButAnalyticCompatible) {
  DetectorModel model;
  EXPECT_FALSE(model.state_dependent());
  EXPECT_TRUE(model.analytic_compatible());
}

// --- Entropy: mixed populations inflate both error rates.

TEST(DetectorModel, EntropyPureStatesDegenerateToStatic) {
  DetectorModel model;
  model.kind = DetectorKind::Entropy;
  // H2(0) = H2(1) = 0 → no inflation.
  const auto clean = model.effective(0.01, 0.02, state(0, 0, 50, 0.0));
  EXPECT_DOUBLE_EQ(clean.p1, 0.01);
  EXPECT_DOUBLE_EQ(clean.p2, 0.02);
  const auto owned = model.effective(0.01, 0.02, state(50, 0, 50, 0.0));
  EXPECT_DOUBLE_EQ(owned.p1, 0.01);
  EXPECT_DOUBLE_EQ(owned.p2, 0.02);
}

TEST(DetectorModel, EntropyPeaksAtHalfCompromised) {
  DetectorModel model;
  model.kind = DetectorKind::Entropy;
  model.entropy_weight = 0.5;
  // f = 1/2 → H2 = 1 bit → w = 0.5, p_eff = p + 0.5(1 - p).
  const auto eff = model.effective(0.01, 0.02, state(25, 0, 50, 0.0));
  EXPECT_DOUBLE_EQ(eff.p1, 0.01 + 0.5 * 0.99);
  EXPECT_DOUBLE_EQ(eff.p2, 0.02 + 0.5 * 0.98);
  // A quarter compromised inflates strictly less.
  const auto quarter = model.effective(0.01, 0.02, state(12, 0, 48, 0.0));
  EXPECT_LT(quarter.p1, eff.p1);
  EXPECT_GT(quarter.p1, 0.01);
}

TEST(DetectorModel, EntropyStaysInUnitIntervalAtFullWeight) {
  DetectorModel model;
  model.kind = DetectorKind::Entropy;
  model.entropy_weight = 1.0;
  const auto eff = model.effective(0.99, 0.99, state(1, 0, 2, 0.0));
  EXPECT_LE(eff.p1, 1.0);
  EXPECT_LE(eff.p2, 1.0);
  EXPECT_TRUE(model.analytic_compatible());
  EXPECT_TRUE(model.state_dependent());
}

// --- CUSUM: evidence accumulates with compromises, drains with time.

TEST(DetectorModel, CusumCrossesThresholdThenAlarms) {
  DetectorModel model;
  model.kind = DetectorKind::Cusum;
  model.cusum_gain = 1.0;
  model.cusum_drift = 1.0 / 7200.0;
  model.cusum_threshold = 3.0;
  model.cusum_alarm_factor = 0.25;

  // Below threshold: S = 1·(2+1) − 0 = 3, NOT > 3 → base rates.
  const auto calm = state(2, 1, 50, 0.0);
  EXPECT_FALSE(model.cusum_alarmed(calm));
  const auto eff_calm = model.effective(0.04, 0.01, calm);
  EXPECT_DOUBLE_EQ(eff_calm.p1, 0.04);
  EXPECT_DOUBLE_EQ(eff_calm.p2, 0.01);

  // One more eviction crosses: S = 4 > 3 → alarmed, p1 shrinks by the
  // alarm factor and p2 grows by its inverse.
  const auto hot = state(2, 2, 50, 0.0);
  EXPECT_TRUE(model.cusum_alarmed(hot));
  const auto eff_hot = model.effective(0.04, 0.01, hot);
  EXPECT_DOUBLE_EQ(eff_hot.p1, 0.04 * 0.25);
  EXPECT_DOUBLE_EQ(eff_hot.p2, 0.01 / 0.25);

  // Long quiet stretch drains the score below threshold again:
  // S = max(0, 4 − 7200·drift·2) = 2 after four hours.
  const auto drained = state(2, 2, 50, 4.0 * 3600.0);
  EXPECT_FALSE(model.cusum_alarmed(drained));

  // Elapsed-time dependence → no analytic backend.
  EXPECT_FALSE(model.analytic_compatible());
}

TEST(DetectorModel, CusumAlarmClampsToUnitInterval) {
  DetectorModel model;
  model.kind = DetectorKind::Cusum;
  model.cusum_threshold = 0.0;
  model.cusum_alarm_factor = 0.1;
  const auto eff = model.effective(0.5, 0.5, state(10, 0, 50, 0.0));
  EXPECT_DOUBLE_EQ(eff.p1, 0.05);
  EXPECT_DOUBLE_EQ(eff.p2, 1.0);  // 0.5 / 0.1 = 5, clamped
}

// --- Logistic: suspicion monotone in compromise fraction and time.

TEST(DetectorModel, CusumEffectiveRatesTakeExactlyTwoValues) {
  // The DES tabulates Equation 1 at cusum's two levels and selects by
  // the alarm predicate, so effective() must only ever return the two
  // table keys, bit for bit.
  midas::core::Params params = midas::core::Params::paper_defaults();
  params.detector.kind = DetectorKind::Cusum;
  params.p1 = 0.0123456789012345678;
  params.p2 = 0.0345678901234567891;
  const midas::sim::DesContext context(params);
  ASSERT_EQ(context.voting.size(), 1u);
  ASSERT_EQ(context.voting[0].size(), 2u);
  const auto& off = context.voting[0][0]->params();
  const auto& alarmed = context.voting[0][1]->params();
  EXPECT_NE(off.p1, alarmed.p1);

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> count(0, params.n_init);
  std::uniform_real_distribution<double> elapsed(0.0, 1e6);
  std::size_t hits[2] = {0, 0};
  for (int i = 0; i < 2000; ++i) {
    const auto s = state(count(rng), count(rng), count(rng), elapsed(rng));
    const bool on = params.detector.cusum_alarmed(s);
    const auto& key = on ? alarmed : off;
    const auto eff = params.detector.effective(params.p1, params.p2, s);
    EXPECT_EQ(eff.p1, key.p1) << i;
    EXPECT_EQ(eff.p2, key.p2) << i;
    ++hits[on ? 1 : 0];
  }
  EXPECT_GT(hits[0], 0u);
  EXPECT_GT(hits[1], 0u);
}

TEST(DetectorModel, LogisticSuspicionMonotone) {
  DetectorModel model;
  model.kind = DetectorKind::Logistic;
  const double p1 = 0.04, p2 = 0.01;
  const auto quiet = model.effective(p1, p2, state(0, 0, 50, 0.0));
  const auto infil = model.effective(p1, p2, state(10, 0, 50, 0.0));
  const auto late = model.effective(p1, p2, state(10, 0, 50, 48.0 * 3600.0));
  // More compromise → more suspicion → fewer misses, more false alarms.
  EXPECT_LT(infil.p1, quiet.p1);
  EXPECT_GT(infil.p2, quiet.p2);
  // More elapsed time → yet more suspicion.
  EXPECT_LT(late.p1, infil.p1);
  EXPECT_GT(late.p2, infil.p2);
  // Bounds hold even at saturation.
  EXPECT_GE(late.p1, 0.0);
  EXPECT_LE(late.p2, 1.0);
  EXPECT_FALSE(model.analytic_compatible());
}

// --- Validation and naming.

TEST(DetectorModel, ValidateNamesTheOffendingField) {
  DetectorModel model;
  model.entropy_weight = 1.5;
  try {
    model.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("detector.entropy_weight"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("outside [0,1]"), std::string::npos)
        << e.what();
  }

  DetectorModel bad_factor;
  bad_factor.cusum_alarm_factor = 0.0;
  EXPECT_THROW(bad_factor.validate(), std::invalid_argument);
  DetectorModel bad_gain;
  bad_gain.cusum_gain = -1.0;
  EXPECT_THROW(bad_gain.validate(), std::invalid_argument);
}

TEST(DetectorModel, KindNamesRoundTrip) {
  for (const auto kind : {DetectorKind::Static, DetectorKind::Entropy,
                          DetectorKind::Cusum, DetectorKind::Logistic}) {
    EXPECT_EQ(detector_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)detector_kind_from_string("bayes"),
               std::invalid_argument);
}

}  // namespace
