// Forward transient integrator (Crank–Nicolson steps as shifted block
// passes over the SCC condensation): validated against closed forms and
// against uniformisation (two completely different numerical paths to
// the same quantity).
#include "spn/reliability_ode.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "spn/transient.h"

namespace {

using namespace midas::spn;

/// R(t_j) = Σw(t_j) from the graph's initial state over [0, t_max].
std::vector<double> survival(const ReliabilityOde& ode,
                             const std::vector<double>& times) {
  return ode.propagate({}, times.back(), {}, times).survival_at;
}

TEST(ReliabilityOde, TwoStateExponentialSurvival) {
  const double lambda = 0.35;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{0.0, 0.5, 1.0, 3.0, 10.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(r[i], std::exp(-lambda * times[i]), 2e-4)
        << "t=" << times[i];
  }
}

TEST(ReliabilityOde, ErlangSurvivalMatchesClosedForm) {
  const int k = 4;
  const double lambda = 2.0;
  PetriNet net;
  const auto p = net.add_place("Stages", k);
  net.transition("stage").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{0.1, 0.5, 1.0, 2.0, 4.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    // Erlang(k, λ) survival = Σ_{j<k} e^{-λt}(λt)^j / j!.
    double surv = 0.0;
    double term = 1.0;
    for (int j = 0; j < k; ++j) {
      if (j > 0) term *= lambda * times[i] / j;
      surv += std::exp(-lambda * times[i]) * term;
    }
    EXPECT_NEAR(r[i], surv, 3e-4) << "t=" << times[i];
  }
}

TEST(ReliabilityOde, AgreesWithUniformisation) {
  // Death chain with state-dependent rates: no simple closed form, so
  // cross-check the two independent transient solvers.
  PetriNet net;
  const auto a = net.add_place("A", 6);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 0.4 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  const TransientAnalyzer uni(g);

  const std::vector<double> times{0.2, 1.0, 2.5, 6.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(r[i], 1.0 - uni.absorbed_probability_at(times[i]), 5e-4)
        << "t=" << times[i];
  }
}

TEST(ReliabilityOde, StiffSystemStaysStableAndMonotone) {
  // Rates spanning 6 orders of magnitude: uniformisation would need
  // ~1e7 iterations for the final time point; the implicit integrator
  // must stay monotone in [0, 1].
  PetriNet net;
  const auto fast = net.add_place("Fast", 1);
  const auto slow = net.add_place("Slow", 0);
  net.transition("relax").input(fast).output(slow).rate(1e4).add();
  net.transition("fail").input(slow).rate(1e-2).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> times{1e-4, 1e-2, 1.0, 50.0, 500.0};
  const auto r = survival(ode, times);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r[i], 0.0);
    EXPECT_LE(r[i], 1.0);
    if (i > 0) {
      EXPECT_LE(r[i], r[i - 1] + 1e-12);
    }
  }
  // Survival at 500 s ≈ exp(-0.01·500) once the fast mode has relaxed.
  EXPECT_NEAR(r.back(), std::exp(-5.0), 5e-3);
}

TEST(ReliabilityOde, InputValidation) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(1.0).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  const std::vector<double> bad{2.0, 1.0};
  EXPECT_THROW((void)ode.propagate({}, 2.0, {}, bad), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  EXPECT_THROW((void)ode.propagate({}, 1.0, {}, neg), std::invalid_argument);
  const std::vector<double> late{3.0};
  EXPECT_THROW((void)ode.propagate({}, 2.0, {}, late), std::invalid_argument);
  EXPECT_THROW((void)ode.propagate({}, -1.0, {}, {}), std::invalid_argument);
  EXPECT_THROW((void)ode.propagate({}, std::numeric_limits<double>::infinity(),
                                   {}, {}),
               std::invalid_argument);
  const std::vector<double> short_initial{1.0};
  EXPECT_THROW((void)ode.propagate(short_initial, 1.0, {}, {}),
               std::invalid_argument);
  const std::vector<std::vector<double>> short_functional{{1.0}};
  EXPECT_THROW((void)ode.propagate({}, 1.0, short_functional, {}),
               std::invalid_argument);
  const std::vector<double> wrong_rates{1.0, 2.0};
  EXPECT_THROW(ReliabilityOde(g, wrong_rates), std::invalid_argument);
}

// --- Chaining, cycles and functionals: what phased missions
// (core::MissionAnalyzer) rely on across segment boundaries.

TEST(ReliabilityOde, PropagateAgreesWithUniformisationShortHorizon) {
  // Cross-check against the completely independent uniformisation
  // solver on a short, non-stiff horizon (where both are sharp): an
  // acyclic chain (singleton blocks only), then a token rotating through
  // a 3-state cycle with a failure exit from each state, whose cycle is
  // one dense SCC block in every Crank–Nicolson step.
  const std::vector<double> times{0.25, 0.75, 1.5, 3.0};
  {
    PetriNet net;
    const auto p = net.add_place("Stages", 3);
    net.transition("stage").input(p).rate(1.5).add();
    const auto g = explore(net);
    const ReliabilityOde ode(g);
    const TransientAnalyzer uni(g);
    const auto r = survival(ode, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_NEAR(r[i], 1.0 - uni.absorbed_probability_at(times[i]), 1e-4)
          << "t=" << times[i];
    }
  }
  PetriNet net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto c = net.add_place("C", 0);
  net.transition("ab").input(a).output(b).rate(2.0).add();
  net.transition("bc").input(b).output(c).rate(3.0).add();
  net.transition("ca").input(c).output(a).rate(1.5).add();
  net.transition("fail_a").input(a).rate(0.2).add();
  net.transition("fail_b").input(b).rate(0.5).add();
  net.transition("fail_c").input(c).rate(0.3).add();
  const auto g = explore(net);
  ASSERT_EQ(g.num_states(), 4u);
  const ReliabilityOde ode(g);
  const TransientAnalyzer uni(g);
  const auto fwd = ode.propagate({}, times.back(), {}, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(fwd.survival_at[i],
                1.0 - uni.absorbed_probability_at(times[i]), 1e-4)
        << "t=" << times[i];
  }
  // The state-by-state distribution, not only its sum.
  const auto pi = uni.distribution_at(times.back());
  const auto absorbing = g.absorbing_mask();
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (!absorbing[s]) {
      EXPECT_NEAR(fwd.weights[s], pi[s], 1e-4) << "state " << s;
    }
  }
}

TEST(ReliabilityOde, PropagateIntegratesAChainWithoutAbsorbingStates) {
  // A two-state flip-flop never absorbs (AbsorbingAnalyzer rejects it),
  // but a finite horizon is well posed: mass stays 1 and relaxes to the
  // stationary split (μ, λ)/(λ + μ).
  const double lambda = 0.7, mu = 0.2;
  PetriNet net;
  const auto up = net.add_place("Up", 1);
  const auto down = net.add_place("Down", 0);
  net.transition("go_down").input(up).output(down).rate(lambda).add();
  net.transition("go_up").input(down).output(up).rate(mu).add();
  const auto g = explore(net);
  ASSERT_EQ(g.num_states(), 2u);
  const ReliabilityOde ode(g);
  const std::vector<double> times{1.0, 10.0, 100.0};
  const auto res = ode.propagate({}, times.back(), {}, times);
  for (const double r : res.survival_at) EXPECT_NEAR(r, 1.0, 1e-12);
  EXPECT_NEAR(res.survival_integral, times.back(), 1e-9 * times.back());
  const double up_share = res.weights[g.initial];
  EXPECT_NEAR(up_share, mu / (lambda + mu), 1e-6);
  EXPECT_NEAR(res.weights[1 - g.initial], lambda / (lambda + mu), 1e-6);
}

TEST(ReliabilityOde, UniformStepChainingReproducesUnsplitRun) {
  // The phased-mission contract: splitting a horizon at an exact
  // multiple of the uniform step and re-seeding from the boundary
  // weights reproduces the unsplit integration essentially exactly.
  PetriNet net;
  const auto a = net.add_place("A", 5);
  net.transition("die")
      .input(a)
      .rate([a](const Marking& m) { return 0.3 * m[a]; })
      .add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  ReliabilityOdeOptions opts;
  opts.uniform_step_s = 0.1;
  const auto whole = ode.propagate({}, 4.0, {}, {}, opts);
  const auto first = ode.propagate({}, 2.0, {}, {}, opts);
  const auto second = ode.propagate(first.weights, 2.0, {}, {}, opts);

  ASSERT_EQ(whole.weights.size(), second.weights.size());
  for (std::size_t s = 0; s < whole.weights.size(); ++s) {
    EXPECT_NEAR(whole.weights[s], second.weights[s],
                1e-12 * std::max(1.0, std::abs(whole.weights[s])))
        << "state " << s;
  }
  EXPECT_NEAR(whole.survival_integral,
              first.survival_integral + second.survival_integral,
              1e-12 * whole.survival_integral);
}

TEST(ReliabilityOde, PropagateAccumulatesFunctionalIntegrals) {
  // One state, rate λ: with f ≡ c on the transient state,
  // ∫ f·w dt over [0, T] = c·(1 − e^{-λT})/λ.
  const double lambda = 0.8, c = 3.0, horizon = 2.0;
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(lambda).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);

  std::vector<std::vector<double>> f(1);
  f[0].assign(g.num_states(), 0.0);
  const auto absorbing = g.absorbing_mask();
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    if (!absorbing[s]) f[0][s] = c;
  }
  const auto res = ode.propagate({}, horizon, f, {});
  ASSERT_EQ(res.functional_integrals.size(), 1u);
  const double expected =
      c * (1.0 - std::exp(-lambda * horizon)) / lambda;
  EXPECT_NEAR(res.functional_integrals[0], expected, 1e-3 * expected);
  EXPECT_NEAR(res.survival_integral, expected / c,
              1e-3 * expected / c);
}

TEST(ReliabilityOde, EmptyTimesAndZeroHorizon) {
  PetriNet net;
  const auto p = net.add_place("P", 1);
  net.transition("fail").input(p).rate(1.0).add();
  const auto g = explore(net);
  const ReliabilityOde ode(g);
  EXPECT_TRUE(ode.propagate({}, 1.0, {}, {}).survival_at.empty());
  const std::vector<double> zero{0.0};
  const auto res = ode.propagate({}, 0.0, {}, zero);
  EXPECT_DOUBLE_EQ(res.survival_at[0], 1.0);
  EXPECT_EQ(res.survival_integral, 0.0);
  EXPECT_EQ(res.weights[g.initial], 1.0);
}

}  // namespace
