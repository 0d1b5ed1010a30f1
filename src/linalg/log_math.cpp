#include "linalg/log_math.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace midas::linalg {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// ln(n!) is tabulated below this n; the voting kernel's populations
/// (a few hundred members at most) never leave the table.
constexpr std::int64_t kFactorialTableSize = 4096;

/// Term P[X = j] of Bin(n, p) for 0 < p < 1, with log(p) and log1p(-p)
/// supplied by the caller: the same expression, in the same order, as
/// binomial_pmf, so a tail sum over these is bitwise the per-term sum.
double binomial_term(std::int64_t n, std::int64_t j, double log_p,
                     double log_q) {
  const double lp = log_binomial(n, j) + static_cast<double>(j) * log_p +
                    static_cast<double>(n - j) * log_q;
  return std::exp(lp);
}

}  // namespace

double log_factorial(std::int64_t n) {
  if (n < 0) return kNegInf;
  // Filled by the very call of the fallback, so a table entry is
  // bitwise the value lgamma would return.
  static const auto table = [] {
    std::array<double, kFactorialTableSize> t{};
    for (std::int64_t i = 0; i < kFactorialTableSize; ++i) {
      t[static_cast<std::size_t>(i)] =
          std::lgamma(static_cast<double>(i) + 1.0);
    }
    return t;
  }();
  if (n < kFactorialTableSize) return table[static_cast<std::size_t>(n)];
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double log_binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) return kNegInf;
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double binomial(std::int64_t n, std::int64_t k) {
  const double lb = log_binomial(n, k);
  return std::isinf(lb) ? 0.0 : std::exp(lb);
}

double binomial_pmf(std::int64_t n, std::int64_t k, double p) {
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  return binomial_term(n, k, std::log(p), std::log1p(-p));
}

double binomial_tail_geq(std::int64_t n, std::int64_t k, double p) {
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  // Degenerate p: the per-term pmf handles the point masses.  Otherwise
  // the logs are hoisted out of the loop; each term is unchanged.
  const bool interior = p > 0.0 && p < 1.0;
  const double log_p = interior ? std::log(p) : 0.0;
  const double log_q = interior ? std::log1p(-p) : 0.0;
  auto term = [&](std::int64_t j) {
    return interior ? binomial_term(n, j, log_p, log_q)
                    : binomial_pmf(n, j, p);
  };
  // Sum the smaller tail for accuracy.
  if (static_cast<double>(k) > static_cast<double>(n) * p) {
    double acc = 0.0;
    for (std::int64_t j = k; j <= n; ++j) acc += term(j);
    return std::min(acc, 1.0);
  }
  double acc = 0.0;
  for (std::int64_t j = 0; j < k; ++j) acc += term(j);
  return std::max(0.0, 1.0 - acc);
}

double hypergeometric_pmf(std::int64_t succ, std::int64_t fail,
                          std::int64_t draws, std::int64_t k) {
  const std::int64_t pop = succ + fail;
  if (draws < 0 || draws > pop) return 0.0;
  if (k < 0 || k > succ || draws - k > fail || draws - k < 0) return 0.0;
  const double lp = log_binomial(succ, k) + log_binomial(fail, draws - k) -
                    log_binomial(pop, draws);
  return std::exp(lp);
}

double log_sum_exp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

}  // namespace midas::linalg
