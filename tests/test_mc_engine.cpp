// Monte-Carlo engine: streaming summaries equal the stored-sample path,
// CI-targeted stopping allocates replications where the variance is,
// CRN substream sharing works as specified, and results are bitwise
// deterministic in the thread count.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/gcs_spn_model.h"
#include "sim/mc_engine.h"
#include "sim/rng.h"

namespace {

using namespace midas;
using sim::McOptions;
using sim::MonteCarloEngine;

core::Params small_params() {
  core::Params p = core::Params::paper_defaults();
  p.n_init = 15;
  p.max_groups = 1;
  p.lambda_c = 1.0 / 2000.0;
  p.t_ids = 60.0;
  return p;
}

std::vector<core::Params> small_grid() {
  std::vector<core::Params> pts;
  for (double t : {15.0, 240.0, 1200.0}) {
    core::Params p = small_params();
    p.t_ids = t;
    pts.push_back(std::move(p));
  }
  return pts;
}

TEST(McEngine, StreamingSummaryMatchesStoredSample) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 150;
  o.max_replications = 150;
  o.capture_trajectories = true;
  MonteCarloEngine engine(o);
  const auto r = engine.run_des(small_params());

  ASSERT_EQ(r.trajectories.size(), 150u);
  std::vector<double> ttsf;
  for (const auto& t : r.trajectories) ttsf.push_back(t.ttsf);
  const auto two_pass = sim::summarize(ttsf);
  EXPECT_NEAR(r.ttsf.mean, two_pass.mean, 1e-9 * two_pass.mean);
  EXPECT_NEAR(r.ttsf.variance, two_pass.variance,
              1e-9 * two_pass.variance);
  EXPECT_NEAR(r.ttsf.ci_half_width, two_pass.ci_half_width,
              1e-9 * two_pass.ci_half_width);
}

TEST(McEngine, CaptureIsOptIn) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 20;
  o.max_replications = 20;
  MonteCarloEngine engine(o);
  const auto r = engine.run_des(small_params());
  EXPECT_TRUE(r.trajectories.empty());
  EXPECT_EQ(r.replications, 20u);
  EXPECT_GT(r.ttsf.mean, 0.0);
}

TEST(McEngine, ReplicationReproducibleInIsolation) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 24;
  o.max_replications = 24;
  o.capture_trajectories = true;
  MonteCarloEngine engine(o);
  const auto params = small_params();
  const auto r = engine.run_des(params);

  // Any captured replication can be reproduced standalone from its
  // published seed.
  const sim::DesContext context(params);
  for (std::size_t rep : {0u, 7u, 23u}) {
    const auto solo =
        sim::simulate_group(params, engine.replication_seed(0, rep), context);
    EXPECT_DOUBLE_EQ(solo.ttsf, r.trajectories[rep].ttsf) << rep;
    EXPECT_DOUBLE_EQ(solo.accumulated_cost,
                     r.trajectories[rep].accumulated_cost);
    EXPECT_EQ(solo.compromises, r.trajectories[rep].compromises);
  }
}

TEST(McEngine, SharedContextMatchesFreshContext) {
  // The memoised per-point context must not change a single digit vs
  // the seed-era fresh-table path.
  const auto params = small_params();
  const sim::DesContext shared(params);
  const sim::DesContext fresh = sim::DesContext::fresh(params);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto a = sim::simulate_group(params, seed, shared);
    const auto b = sim::simulate_group(params, seed, fresh);
    EXPECT_DOUBLE_EQ(a.ttsf, b.ttsf) << seed;
    EXPECT_DOUBLE_EQ(a.accumulated_cost, b.accumulated_cost) << seed;
  }
}

TEST(McEngine, AdaptiveStoppingHitsTargetAndAdaptsToVariance) {
  McOptions o;
  o.rel_ci_target = 0.10;
  o.min_replications = 48;
  o.block = 48;
  MonteCarloEngine engine(o);
  const auto pts = small_grid();
  const auto results = engine.run_des(pts);

  for (const auto& r : results) {
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.ttsf.ci_half_width, o.rel_ci_target * r.ttsf.mean);
    EXPECT_LE(r.cost_rate.ci_half_width,
              o.rel_ci_target * r.cost_rate.mean);
  }
  // The high-variance point (t_ids = 1200, cv ~ 0.8) must need more
  // replications than the low-variance one (t_ids = 15, cv ~ 0.28).
  EXPECT_GT(results.back().replications, results.front().replications);
}

TEST(McEngine, SingleReplicationNeverCountsAsConverged) {
  // Regression: an n = 1 summary has a degenerate zero-width CI, which
  // must not satisfy the adaptive target.
  McOptions o;
  o.rel_ci_target = 0.25;
  o.min_replications = 1;
  o.block = 1;
  o.max_replications = 4000;
  MonteCarloEngine engine(o);
  const auto r = engine.run_des(small_params());
  EXPECT_GE(r.replications, 2u);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.ttsf.ci_half_width, 0.0);
}

TEST(McEngine, FixedBudgetRunsExactlyMinReplications) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 100;
  o.max_replications = 5000;
  MonteCarloEngine engine(o);
  const auto r = engine.run_des(small_params());
  EXPECT_EQ(r.replications, 100u);
  EXPECT_TRUE(r.converged);
}

TEST(McEngine, DeterministicAcrossThreadCounts) {
  const auto pts = small_grid();
  auto run = [&](std::size_t threads) {
    McOptions o;
    o.rel_ci_target = 0.15;
    o.min_replications = 32;
    o.block = 16;
    o.threads = threads;
    MonteCarloEngine engine(o);
    return engine.run_des(pts);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise equality: seeds depend only on (point, replication) and
    // block partials merge in schedule order.
    EXPECT_EQ(a[i].replications, b[i].replications) << i;
    EXPECT_EQ(a[i].ttsf.mean, b[i].ttsf.mean) << i;
    EXPECT_EQ(a[i].ttsf.ci_half_width, b[i].ttsf.ci_half_width) << i;
    EXPECT_EQ(a[i].cost_rate.mean, b[i].cost_rate.mean) << i;
    EXPECT_EQ(a[i].p_failure_c1, b[i].p_failure_c1) << i;
  }
}

/// Every accumulated byte of two grid results: Welford states, counts,
/// survival counters and captured trajectories.
void expect_bitwise_equal(const std::vector<sim::McPointResult>& a,
                          const std::vector<sim::McPointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ttsf_state.n, b[i].ttsf_state.n) << i;
    EXPECT_EQ(a[i].ttsf_state.mean, b[i].ttsf_state.mean) << i;
    EXPECT_EQ(a[i].ttsf_state.m2, b[i].ttsf_state.m2) << i;
    EXPECT_EQ(a[i].cost_rate_state.n, b[i].cost_rate_state.n) << i;
    EXPECT_EQ(a[i].cost_rate_state.mean, b[i].cost_rate_state.mean) << i;
    EXPECT_EQ(a[i].cost_rate_state.m2, b[i].cost_rate_state.m2) << i;
    EXPECT_EQ(a[i].replications, b[i].replications) << i;
    EXPECT_EQ(a[i].failures_c1, b[i].failures_c1) << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << i;
    EXPECT_EQ(a[i].survival_counts, b[i].survival_counts) << i;
    ASSERT_EQ(a[i].trajectories.size(), b[i].trajectories.size()) << i;
    for (std::size_t k = 0; k < a[i].trajectories.size(); ++k) {
      const auto& x = a[i].trajectories[k];
      const auto& y = b[i].trajectories[k];
      EXPECT_EQ(x.ttsf, y.ttsf) << i << "/" << k;
      EXPECT_EQ(x.accumulated_cost, y.accumulated_cost) << i << "/" << k;
      EXPECT_EQ(x.compromises, y.compromises) << i << "/" << k;
    }
  }
}

TEST(McEngine, HeterogeneousGridBitwiseAcrossThreadCounts) {
  // Cheap static points beside costly cusum ones, with a block size
  // that is not a multiple of the engine's chunk, antithetic pairs,
  // capture and survival horizons all on: the chunked schedule must
  // reproduce the one-thread bytes at any thread count.
  std::vector<core::Params> pts;
  for (const auto kind : {ids::DetectorKind::Static, ids::DetectorKind::Cusum}) {
    for (const double t : {15.0, 600.0}) {
      core::Params p = small_params();
      p.detector.kind = kind;
      p.t_ids = t;
      pts.push_back(std::move(p));
    }
  }
  McOptions o;
  o.rel_ci_target = 0.15;
  o.min_replications = 14;
  o.block = 10;
  o.antithetic = true;
  o.capture_trajectories = true;
  o.survival_horizons = {1e4, 1e5};
  auto run = [&](std::size_t threads) {
    McOptions opts = o;
    opts.threads = threads;
    MonteCarloEngine engine(opts);
    return engine.run_des(pts);
  };
  const auto one = run(1);
  for (const std::size_t threads : {2u, 3u, 7u}) {
    SCOPED_TRACE(threads);
    expect_bitwise_equal(one, run(threads));
  }

  // Captured trajectories sit in replication order: pair r holds the
  // plain then the flipped trajectory of seed r.
  const MonteCarloEngine engine(o);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const sim::DesContext context(pts[i]);
    ASSERT_EQ(one[i].trajectories.size(), one[i].replications);
    for (std::size_t rep = 0; 2 * rep < one[i].trajectories.size(); ++rep) {
      for (const bool flip : {false, true}) {
        sim::UniformStream draw(engine.replication_seed(i, rep), flip);
        const auto solo = sim::simulate_group(pts[i], draw, context);
        EXPECT_EQ(solo.ttsf, one[i].trajectories[2 * rep + flip].ttsf)
            << i << "/" << rep;
      }
    }
  }
}

TEST(McEngine, FixedBudgetBeyondInFlightWindowMatchesOneThread) {
  // 5000 replications in one round exceed the engine's in-flight
  // window of 4096, and blocks of 1000 straddle the wave boundary.
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 5000;
  o.max_replications = 5000;
  o.block = 1000;
  o.capture_trajectories = true;
  auto run = [&](std::size_t threads) {
    McOptions opts = o;
    opts.threads = threads;
    MonteCarloEngine engine(opts);
    return engine.run_des(small_grid());
  };
  const auto one = run(1);
  ASSERT_EQ(one[0].replications, 5000u);
  expect_bitwise_equal(one, run(4));
}

TEST(McEngine, CrnSharesSubstreamsAcrossPoints) {
  McOptions crn;
  crn.crn = true;
  MonteCarloEngine with_crn(crn);
  EXPECT_EQ(with_crn.replication_seed(0, 17), with_crn.replication_seed(3, 17));

  McOptions ind = crn;
  ind.crn = false;
  MonteCarloEngine without(ind);
  EXPECT_NE(without.replication_seed(0, 17), without.replication_seed(3, 17));
  // Independent layout must not collide with the CRN layout either.
  EXPECT_NE(without.replication_seed(0, 17), with_crn.replication_seed(0, 17));
}

TEST(McEngine, CrnReducesContrastVariance) {
  // Two nearby TIDS points: the paired difference of CRN replications
  // must have lower variance than with independent substreams.
  std::vector<core::Params> pts;
  for (double t : {60.0, 120.0}) {
    core::Params p = small_params();
    p.t_ids = t;
    pts.push_back(std::move(p));
  }
  auto contrast_var = [&](bool use_crn) {
    McOptions o;
    o.rel_ci_target = 0.0;
    o.min_replications = 300;
    o.max_replications = 300;
    o.crn = use_crn;
    o.capture_trajectories = true;
    MonteCarloEngine engine(o);
    const auto r = engine.run_des(pts);
    sim::Welford w;
    for (std::size_t i = 0; i < 300; ++i) {
      w.push(r[0].trajectories[i].ttsf - r[1].trajectories[i].ttsf);
    }
    return w.variance();
  };
  EXPECT_LT(contrast_var(true), contrast_var(false));
}

TEST(McEngine, AntitheticPairsReproducibleFromSeedAndFlag) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 16;  // pairs
  o.max_replications = 16;
  o.antithetic = true;
  o.capture_trajectories = true;
  MonteCarloEngine engine(o);
  const auto params = small_params();
  const auto r = engine.run_des(params);

  // 16 pairs -> 32 trajectories; Summary counts pairs.
  EXPECT_EQ(r.replications, 32u);
  EXPECT_EQ(r.ttsf.n, 16u);
  ASSERT_EQ(r.trajectories.size(), 32u);

  // Captured order is (plain, flipped) per pair, both members over the
  // pair's published seed.
  const sim::DesContext context(params);
  for (std::size_t pair : {0u, 5u, 15u}) {
    sim::UniformStream plain(engine.replication_seed(0, pair), false);
    sim::UniformStream flipped(engine.replication_seed(0, pair), true);
    const auto a = sim::simulate_group(params, plain, context);
    const auto b = sim::simulate_group(params, flipped, context);
    EXPECT_DOUBLE_EQ(a.ttsf, r.trajectories[2 * pair].ttsf) << pair;
    EXPECT_DOUBLE_EQ(b.ttsf, r.trajectories[2 * pair + 1].ttsf) << pair;
    EXPECT_NE(a.ttsf, b.ttsf) << pair;
  }
}

TEST(McEngine, AntitheticMeanMatchesPlainWithinCi) {
  auto run = [&](bool antithetic) {
    McOptions o;
    o.rel_ci_target = 0.0;
    o.min_replications = antithetic ? 200 : 400;  // equal trajectories
    o.max_replications = o.min_replications;
    o.antithetic = antithetic;
    MonteCarloEngine engine(o);
    return engine.run_des(small_params());
  };
  const auto plain = run(false);
  const auto anti = run(true);
  EXPECT_EQ(plain.replications, anti.replications);
  // Antithetic pairing leaves the estimator unbiased: the two runs are
  // estimates of the same mean and must agree within their joint CI.
  EXPECT_NEAR(anti.ttsf.mean, plain.ttsf.mean,
              plain.ttsf.ci_half_width + anti.ttsf.ci_half_width);
  EXPECT_NEAR(anti.cost_rate.mean, plain.cost_rate.mean,
              plain.cost_rate.ci_half_width +
                  anti.cost_rate.ci_half_width);
}

TEST(McEngine, AntitheticShrinksEstimatorVariance) {
  // At the fast-detection point the holding-time draws dominate TTSF
  // and the measured within-pair correlation is ~-0.4, so the
  // pair-average estimator must beat the plain one at equal trajectory
  // budget (deterministic under the fixed seed).
  core::Params p = small_params();
  p.t_ids = 15.0;
  const std::size_t pairs = 400;
  auto run = [&](bool antithetic) {
    McOptions o;
    o.rel_ci_target = 0.0;
    o.min_replications = antithetic ? pairs : 2 * pairs;
    o.max_replications = o.min_replications;
    o.antithetic = antithetic;
    o.capture_trajectories = true;
    MonteCarloEngine engine(o);
    return engine.run_des(p);
  };
  const auto plain = run(false);
  const auto anti = run(true);

  sim::Welford wp, wa;
  for (const auto& t : plain.trajectories) wp.push(t.ttsf);
  for (std::size_t k = 0; k + 1 < anti.trajectories.size(); k += 2) {
    wa.push(0.5 *
            (anti.trajectories[k].ttsf + anti.trajectories[k + 1].ttsf));
  }
  const double var_plain = wp.variance() / (2.0 * pairs);
  const double var_anti = wa.variance() / static_cast<double>(pairs);
  EXPECT_LT(var_anti, var_plain);
}

TEST(McEngine, AntitheticDeterministicAcrossThreadCounts) {
  const auto pts = small_grid();
  auto run = [&](std::size_t threads) {
    McOptions o;
    o.rel_ci_target = 0.15;
    o.min_replications = 32;
    o.block = 16;
    o.threads = threads;
    o.antithetic = true;
    MonteCarloEngine engine(o);
    return engine.run_des(pts);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replications, b[i].replications) << i;
    EXPECT_EQ(a[i].ttsf.mean, b[i].ttsf.mean) << i;
    EXPECT_EQ(a[i].ttsf.ci_half_width, b[i].ttsf.ci_half_width) << i;
    EXPECT_EQ(a[i].cost_rate.mean, b[i].cost_rate.mean) << i;
    EXPECT_EQ(a[i].p_failure_c1, b[i].p_failure_c1) << i;
  }
}

TEST(McEngine, AntitheticProtocolPairsShareSeedsAndCountTrajectories) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 4;  // pairs
  o.max_replications = 4;
  o.block = 2;
  o.antithetic = true;
  o.capture_trajectories = true;
  MonteCarloEngine engine(o);
  const auto base = sim::ProtocolSimParams::small_defaults();
  const std::vector<sim::ProtocolSimParams> pts{base};
  const auto r = engine.run_protocol(pts);
  ASSERT_EQ(r.size(), 1u);
  // 4 pairs = 8 trajectories; Welford samples count pairs.
  EXPECT_EQ(r[0].replications, 8u);
  EXPECT_EQ(r[0].ttsf.n, 4u);
  ASSERT_EQ(r[0].trajectories.size(), 8u);
  // Captured order is (plain, flipped) per pair: each member is the
  // seed-addressed single-trajectory run with the matching flag.
  for (std::size_t pair = 0; pair < 4; ++pair) {
    const auto seed = engine.replication_seed(0, pair);
    const auto plain = sim::run_protocol_sim(base, seed, false);
    const auto flipped = sim::run_protocol_sim(base, seed, true);
    EXPECT_DOUBLE_EQ(r[0].trajectories[2 * pair].ttsf, plain.ttsf) << pair;
    EXPECT_DOUBLE_EQ(r[0].trajectories[2 * pair + 1].ttsf, flipped.ttsf)
        << pair;
    // The flipped member is a genuinely different trajectory...
    EXPECT_NE(plain.ttsf, flipped.ttsf) << pair;
  }
}

TEST(McEngine, AntitheticProtocolDeterministicAcrossThreadCounts) {
  auto base = sim::ProtocolSimParams::small_defaults();
  std::vector<sim::ProtocolSimParams> pts{base, base};
  pts[1].model.t_ids = 600.0;
  auto run = [&](std::size_t threads) {
    McOptions o;
    o.rel_ci_target = 0.0;
    o.min_replications = 3;
    o.block = 2;
    o.threads = threads;
    o.antithetic = true;
    MonteCarloEngine engine(o);
    return engine.run_protocol(pts);
  };
  const auto a = run(1);
  const auto b = run(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replications, b[i].replications) << i;
    EXPECT_EQ(a[i].ttsf.mean, b[i].ttsf.mean) << i;
    EXPECT_EQ(a[i].cost_rate.mean, b[i].cost_rate.mean) << i;
    EXPECT_TRUE(a[i].keys_always_agreed) << i;
  }
}

TEST(McEngine, SurvivalHorizonsEstimateReliability) {
  McOptions o;
  o.rel_ci_target = 0.0;
  o.min_replications = 400;
  o.max_replications = 400;
  const auto params = small_params();
  // Bracket the MTTSF so the survival curve actually decays.
  o.survival_horizons = {0.0, 1.0e4, 5.0e4, 1.0e30};
  MonteCarloEngine engine(o);
  const auto r = engine.run_des(params);

  ASSERT_EQ(r.survival.size(), 4u);
  EXPECT_DOUBLE_EQ(r.survival[0].mean, 1.0);   // everyone survives t=0
  EXPECT_DOUBLE_EQ(r.survival[3].mean, 0.0);   // nobody survives forever
  // Wilson intervals: even the degenerate proportions keep real width.
  EXPECT_GT(r.survival[0].ci_half_width, 0.0);
  EXPECT_GT(r.survival[3].ci_half_width, 0.0);
  for (std::size_t h = 1; h < r.survival.size(); ++h) {
    EXPECT_LE(r.survival[h].mean, r.survival[h - 1].mean) << h;
  }
  // Cross-check against the analytic transient solution.
  const auto analytic = core::GcsSpnModel(params).reliability_at(
      std::vector<double>{1.0e4, 5.0e4});
  EXPECT_NEAR(r.survival[1].mean, analytic[0],
              2.0 * r.survival[1].ci_half_width + 1e-12);
  EXPECT_NEAR(r.survival[2].mean, analytic[1],
              2.0 * r.survival[2].ci_half_width + 1e-12);
}

TEST(McEngine, ProtocolGridDeterministicAcrossThreadCounts) {
  auto base = sim::ProtocolSimParams::small_defaults();
  std::vector<sim::ProtocolSimParams> pts{base, base};
  pts[1].model.t_ids = 600.0;
  auto run = [&](std::size_t threads) {
    McOptions o;
    o.rel_ci_target = 0.0;
    o.min_replications = 4;
    o.block = 2;
    o.threads = threads;
    MonteCarloEngine engine(o);
    return engine.run_protocol(pts);
  };
  const auto a = run(1);
  const auto b = run(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ttsf.mean, b[i].ttsf.mean) << i;
    EXPECT_EQ(a[i].cost_rate.mean, b[i].cost_rate.mean) << i;
    EXPECT_TRUE(a[i].keys_always_agreed);
  }
}

TEST(McEngine, RunReplicationsWrapperIsStreaming) {
  const auto params = small_params();
  const auto summary = sim::run_replications(params, 60, 0xABC, 1);
  EXPECT_TRUE(summary.trajectories.empty());
  EXPECT_EQ(summary.ttsf.n, 60u);

  // Zero replications stays the seed-era empty-summary edge case.
  const auto empty = sim::run_replications(params, 0, 0xABC, 1);
  EXPECT_EQ(empty.ttsf.n, 0u);
  EXPECT_DOUBLE_EQ(empty.p_failure_c1, 0.0);
  EXPECT_TRUE(empty.trajectories.empty());

  const auto captured = sim::run_replications(params, 60, 0xABC, 1, true);
  ASSERT_EQ(captured.trajectories.size(), 60u);
  EXPECT_EQ(captured.ttsf.mean, summary.ttsf.mean);
}

TEST(McEngine, EmptyGridAndBadOptions) {
  MonteCarloEngine engine{McOptions{}};
  EXPECT_TRUE(engine.run_des(std::span<const core::Params>{}).empty());

  McOptions bad;
  bad.block = 0;
  EXPECT_THROW(MonteCarloEngine{bad}, std::invalid_argument);
  McOptions bad2;
  bad2.min_replications = 0;
  EXPECT_THROW(MonteCarloEngine{bad2}, std::invalid_argument);
}

}  // namespace
