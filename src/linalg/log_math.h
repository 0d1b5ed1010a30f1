// Log-domain combinatorics.  The voting-IDS error probabilities (paper
// Eq. 1) mix hypergeometric participant selection with binomial voter
// error counts; at N = 100, m = 9 the raw binomials overflow doubles, so
// every pmf here is evaluated through log-gamma.
#pragma once

#include <cstdint>

namespace midas::linalg {

/// ln(n!) via lgamma; exact for the integer arguments we use.  Read
/// from a table of the same lgamma values for n < 4096.
[[nodiscard]] double log_factorial(std::int64_t n);

/// ln C(n, k); returns -inf when the coefficient is zero (k < 0 or k > n).
[[nodiscard]] double log_binomial(std::int64_t n, std::int64_t k);

/// C(n, k) in doubles (may overflow for n beyond ~1000; callers in this
/// project stay far below that).
[[nodiscard]] double binomial(std::int64_t n, std::int64_t k);

/// Binomial pmf  P[X = k],  X ~ Bin(n, p).  Correct for p = 0 and p = 1.
[[nodiscard]] double binomial_pmf(std::int64_t n, std::int64_t k, double p);

/// Binomial upper tail  P[X >= k].
[[nodiscard]] double binomial_tail_geq(std::int64_t n, std::int64_t k,
                                       double p);

/// Hypergeometric pmf: drawing `draws` items without replacement from a
/// population of `succ` successes and `fail` failures; probability of
/// exactly `k` successes.
[[nodiscard]] double hypergeometric_pmf(std::int64_t succ, std::int64_t fail,
                                        std::int64_t draws, std::int64_t k);

/// log(exp(a) + exp(b)) without overflow.
[[nodiscard]] double log_sum_exp(double a, double b);

}  // namespace midas::linalg
