#include "spn/reliability_ode.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace midas::spn {

namespace {

// Log-spaced grid: 800 steps over horizon·10⁻⁸ .. horizon.
constexpr std::size_t kSteps = 800;
constexpr double kDecades = 8.0;

/// The Crank–Nicolson grid over [0, horizon]: log-spaced by default,
/// uniform when opts.uniform_step_s > 0.
std::vector<double> make_grid(double horizon,
                              const ReliabilityOdeOptions& opts) {
  std::vector<double> grid{0.0};
  if (opts.uniform_step_s > 0.0) {
    // Uniform steps: k·h up to the horizon (last step truncated).  A
    // horizon split at an exact multiple of h reproduces the unsplit
    // step sequence exactly.
    const double h = opts.uniform_step_s;
    const auto whole = static_cast<std::size_t>(std::floor(horizon / h));
    grid.reserve(whole + 2);
    for (std::size_t j = 1; j <= whole; ++j) {
      grid.push_back(static_cast<double>(j) * h);
    }
    if (grid.back() < horizon) grid.push_back(horizon);
    return grid;
  }
  // Small first steps resolve the fast initial transient; the per-step
  // relative growth stays at 10^(decades/steps) − 1 (≈ 2.3%), well
  // inside Crank–Nicolson's accurate regime.
  grid.reserve(kSteps + 1);
  for (std::size_t j = 1; j <= kSteps; ++j) {
    const double frac =
        static_cast<double>(j) / static_cast<double>(kSteps);
    grid.push_back(horizon * std::pow(10.0, -kDecades * (1.0 - frac)));
  }
  return grid;
}

}  // namespace

ReliabilityOde::ReliabilityOde(const ReachabilityGraph& graph)
    : ReliabilityOde(graph, {}) {}

ReliabilityOde::ReliabilityOde(const ReachabilityGraph& graph,
                               std::span<const double> edge_rates)
    : structure_(graph) {
  if (!edge_rates.empty() && edge_rates.size() != graph.edges.size()) {
    throw std::invalid_argument(
        "ReliabilityOde: edge_rates size " +
        std::to_string(edge_rates.size()) + " does not match edge count " +
        std::to_string(graph.edges.size()));
  }
  if (edge_rates.empty()) {
    rates_.reserve(graph.edges.size());
    for (const auto& e : graph.edges) rates_.push_back(e.rate);
  } else {
    rates_.assign(edge_rates.begin(), edge_rates.end());
  }
  exit_ = structure_.exit_rates(rates_);
}

ForwardResult ReliabilityOde::propagate(
    std::span<const double> initial, double duration,
    std::span<const std::vector<double>> functionals,
    std::span<const double> emit_times,
    const ReliabilityOdeOptions& opts) const {
  if (!(duration >= 0.0) || std::isinf(duration)) {
    throw std::invalid_argument(
        "propagate: duration must be finite and non-negative");
  }
  const auto& expand = structure_.expand();
  const std::size_t n = structure_.compact().size();
  if (!initial.empty() && initial.size() != n) {
    throw std::invalid_argument(
        "propagate: initial size " + std::to_string(initial.size()) +
        " does not match state count " + std::to_string(n));
  }
  for (const auto& f : functionals) {
    if (f.size() != n) {
      throw std::invalid_argument(
          "propagate: functional size does not match state count");
    }
  }
  for (std::size_t i = 0; i < emit_times.size(); ++i) {
    if (emit_times[i] < 0.0 || emit_times[i] > duration ||
        (i > 0 && emit_times[i] < emit_times[i - 1])) {
      throw std::invalid_argument(
          "propagate: emit_times must be ascending within [0, duration]");
    }
  }

  ForwardResult res;
  res.weights.assign(n, 0.0);
  res.functional_integrals.assign(functionals.size(), 0.0);
  res.survival_at.assign(emit_times.size(), 0.0);
  const std::size_t nt = expand.size();
  if (nt == 0) return res;

  // Compact working distribution.
  std::vector<double> w(nt, 0.0);
  if (initial.empty()) {
    const auto init = structure_.initial_compact();
    if (init == UINT32_MAX) return res;  // initial state absorbing
    w[init] = 1.0;
  } else {
    for (std::size_t c = 0; c < nt; ++c) w[c] = initial[expand[c]];
  }

  const auto total = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (const double v : x) acc += v;
    return acc;
  };
  // ⟨f, w⟩ with f full-state indexed and w compact.
  const auto dot = [&](const std::vector<double>& f,
                       const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t c = 0; c < nt; ++c) acc += f[expand[c]] * x[c];
    return acc;
  };
  const auto scatter = [&] {
    for (std::size_t c = 0; c < nt; ++c) res.weights[expand[c]] = w[c];
  };

  std::size_t next_emit = 0;
  double s_prev = total(w);
  auto emit_upto = [&](double prev_now, double now, double s_now) {
    while (next_emit < emit_times.size() && emit_times[next_emit] <= now) {
      const double t = emit_times[next_emit];
      const double frac =
          now > prev_now ? (t - prev_now) / (now - prev_now) : 1.0;
      res.survival_at[next_emit] =
          std::clamp(s_prev + frac * (s_now - s_prev), 0.0, 1.0);
      ++next_emit;
    }
  };
  if (duration == 0.0) {
    emit_upto(0.0, 0.0, s_prev);
    scatter();
    return res;
  }

  const std::vector<double> grid = make_grid(duration, opts);
  std::vector<double> y(nt);
  std::vector<double> fdot_prev(functionals.size());
  for (std::size_t k = 0; k < functionals.size(); ++k) {
    fdot_prev[k] = dot(functionals[k], w);
  }

  double prev_now = 0.0;
  for (std::size_t j = 1; j < grid.size(); ++j) {
    // Crank–Nicolson step  (I − h/2·Qᵀ) w_new = (I + h/2·Qᵀ) w:  with
    // y = (w_new + w)/2 this is (σI − Qᵀ) y = σw, σ = 2/h — the block
    // pass with every exit rate shifted by σ.
    const double step = grid[j] - grid[j - 1];
    const double sigma = 2.0 / step;
    for (std::size_t c = 0; c < nt; ++c) y[c] = sigma * w[c];
    structure_.solve_blocks(rates_, exit_, sigma, y);
    for (std::size_t c = 0; c < nt; ++c) w[c] = 2.0 * y[c] - w[c];

    // Trapezoid accumulation of the survival-time and rate integrals
    // over this step, then interpolated emissions.
    const double now = grid[j];
    const double s_now = total(w);
    res.survival_integral += 0.5 * step * (s_prev + s_now);
    for (std::size_t k = 0; k < functionals.size(); ++k) {
      const double fd = dot(functionals[k], w);
      res.functional_integrals[k] += 0.5 * step * (fdot_prev[k] + fd);
      fdot_prev[k] = fd;
    }
    emit_upto(prev_now, now, s_now);
    prev_now = now;
    s_prev = s_now;
  }
  scatter();
  return res;
}

}  // namespace midas::spn
