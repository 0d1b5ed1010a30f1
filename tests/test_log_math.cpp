#include "linalg/log_math.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace {

using namespace midas::linalg;

TEST(LogMath, FactorialSmallValues) {
  EXPECT_NEAR(log_factorial(0), 0.0, 1e-12);
  EXPECT_NEAR(log_factorial(1), 0.0, 1e-12);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-9);
}

TEST(LogMath, FactorialNegativeIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(log_factorial(-1)));
  EXPECT_LT(log_factorial(-1), 0.0);
}

TEST(LogMath, BinomialKnownValues) {
  EXPECT_NEAR(binomial(5, 2), 10.0, 1e-9);
  EXPECT_NEAR(binomial(10, 5), 252.0, 1e-6);
  EXPECT_NEAR(binomial(52, 5), 2598960.0, 1e-2);
  EXPECT_DOUBLE_EQ(binomial(4, 7), 0.0);
  EXPECT_DOUBLE_EQ(binomial(4, -1), 0.0);
}

TEST(LogMath, BinomialSymmetry) {
  for (int n = 1; n <= 30; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_NEAR(log_binomial(n, k), log_binomial(n, n - k), 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogMath, BinomialPmfEdgeProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 9, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, -1, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 11, 0.5), 0.0);
}

TEST(LogMath, BinomialPmfKnownValue) {
  // P[X=2], X~Bin(4, 0.5) = 6/16.
  EXPECT_NEAR(binomial_pmf(4, 2, 0.5), 0.375, 1e-12);
}

class BinomialPmfSum : public ::testing::TestWithParam<std::pair<int, double>> {
};

TEST_P(BinomialPmfSum, SumsToOne) {
  const auto [n, p] = GetParam();
  double sum = 0.0;
  for (int k = 0; k <= n; ++k) sum += binomial_pmf(n, k, p);
  EXPECT_NEAR(sum, 1.0, 1e-10) << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialPmfSum,
    ::testing::Values(std::pair{1, 0.5}, std::pair{5, 0.01},
                      std::pair{9, 0.99}, std::pair{50, 0.3},
                      std::pair{100, 0.01}, std::pair{100, 0.999},
                      std::pair{7, 0.5}, std::pair{200, 0.12}));

TEST(LogMath, TailMatchesDirectSum) {
  const int n = 20;
  const double p = 0.37;
  for (int k = 0; k <= n + 1; ++k) {
    double direct = 0.0;
    for (int j = k; j <= n; ++j) direct += binomial_pmf(n, j, p);
    EXPECT_NEAR(binomial_tail_geq(n, k, p), direct, 1e-11) << "k=" << k;
  }
}

TEST(LogMath, FactorialTableMatchesLgammaBitwise) {
  // The table covers n < 4096; the range runs past its edge so the
  // lgamma fallback is checked too.
  for (std::int64_t n = 0; n <= 4096 + 16; ++n) {
    EXPECT_EQ(log_factorial(n), std::lgamma(static_cast<double>(n) + 1.0))
        << "n=" << n;
  }
}

/// The tail as a plain per-term binomial_pmf sum: the smaller tail,
/// clamped, with no hoisted logarithms.
double per_term_tail(std::int64_t n, std::int64_t k, double p) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  double acc = 0.0;
  if (static_cast<double>(k) > static_cast<double>(n) * p) {
    for (std::int64_t j = k; j <= n; ++j) acc += binomial_pmf(n, j, p);
    return std::min(acc, 1.0);
  }
  for (std::int64_t j = 0; j < k; ++j) acc += binomial_pmf(n, j, p);
  return std::max(0.0, 1.0 - acc);
}

TEST(LogMath, TailMatchesPerTermSumBitwise) {
  for (const double p : {0.0, 1e-300, 0.01, 0.5, 0.99, 1.0}) {
    for (std::int64_t n = 0; n <= 40; ++n) {
      for (std::int64_t k = -1; k <= n + 1; ++k) {
        EXPECT_EQ(binomial_tail_geq(n, k, p), per_term_tail(n, k, p))
            << "n=" << n << " k=" << k << " p=" << p;
      }
    }
  }
}

TEST(LogMath, TailBoundaries) {
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, -3, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 11, 0.3), 0.0);
}

TEST(LogMath, HypergeometricSumsToOne) {
  const std::int64_t succ = 7, fail = 13, draws = 9;
  double sum = 0.0;
  for (std::int64_t k = 0; k <= draws; ++k) {
    sum += hypergeometric_pmf(succ, fail, draws, k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(LogMath, HypergeometricKnownValue) {
  // Drawing 2 from 3 red + 2 blue; P[exactly 1 red] = C(3,1)C(2,1)/C(5,2)
  // = 6/10.
  EXPECT_NEAR(hypergeometric_pmf(3, 2, 2, 1), 0.6, 1e-12);
}

TEST(LogMath, HypergeometricMean) {
  // E[successes] = draws * succ / population.
  const std::int64_t succ = 30, fail = 70, draws = 10;
  double mean = 0.0;
  for (std::int64_t k = 0; k <= draws; ++k) {
    mean +=
        static_cast<double>(k) * hypergeometric_pmf(succ, fail, draws, k);
  }
  EXPECT_NEAR(mean, 10.0 * 30.0 / 100.0, 1e-9);
}

TEST(LogMath, HypergeometricImpossibleDraws) {
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(3, 2, 2, 3), 0.0);   // k > draws? k>succ
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(3, 2, 6, 3), 0.0);   // draws > pop
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(3, 2, 2, -1), 0.0);  // k < 0
}

TEST(LogMath, LogSumExpBasics) {
  EXPECT_NEAR(log_sum_exp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_sum_exp(ninf, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(log_sum_exp(1.5, ninf), 1.5);
}

TEST(LogMath, LogSumExpLargeMagnitudes) {
  // Must not overflow: both operands near 1e308 in linear domain.
  const double a = 700.0, b = 699.0;
  EXPECT_NEAR(log_sum_exp(a, b), a + std::log1p(std::exp(b - a)), 1e-12);
}

}  // namespace
