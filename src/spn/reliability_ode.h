// Stiff-horizon transient analysis: the surviving distribution of an
// absorbing CTMC over a finite horizon.
//
// Uniformisation (transient.h) costs O(Λ·t) matrix-vector products; for
// mission-length horizons with fast IDS rates Λ·t reaches 10⁸ and the
// method is unusable.  The transient-state distribution obeys the
// adjoint (forward) system
//
//     w'(t) = Q_TTᵀ · w(t),   R(t) = Σ_i w_i(t),
//
// and Crank–Nicolson advances this stiff ODE with steps limited only by
// accuracy, not by Λ.  One step of width h is a single shifted solve:
// with σ = 2/h, w_new = 2y − w where y solves the sojourn balance
//
//     (σ + exit_j)·y_j − Σ_{i→j} r_ij·y_i = σ·w_j,
//
// i.e. AbsorbingAnalyzer's block pass over the SCC condensation with
// every exit rate shifted by σ (TransientStructure::solve_blocks).  The
// pass is direct — singleton divisions and dense LU on the small
// partition/merge cycles — so a step has no iteration, no tolerance and
// no explicit Q product; the shift makes every block strictly
// column-diagonally dominant, so the step exists even on a chain with
// no absorbing state.
//
// Phased missions (core::MissionAnalyzer) chain propagate() across
// piecewise-constant segments: the weights at a phase boundary seed the
// next phase's integration.  Per-phase generators come from the
// edge-rate constructor overload (the sweep-engine re-rating idiom), so
// one explored graph serves every structure-invariant phase.
#pragma once

#include <span>
#include <vector>

#include "spn/absorbing.h"
#include "spn/reachability.h"

namespace midas::spn {

struct ReliabilityOdeOptions {
  /// > 0 replaces the log-spaced grid (800 steps spanning
  /// horizon·10⁻⁸ .. horizon) with UNIFORM steps of this size (the last
  /// step truncated to the horizon).  Splitting a horizon at an exact
  /// multiple of the step then reproduces the unsplit step sequence
  /// exactly — the phase-boundary chaining tests rely on it.
  double uniform_step_s = 0.0;
};

/// What one propagate() call accumulated over its phase.
struct ForwardResult {
  /// Transient distribution w(duration), full-state indexing
  /// (identically 0 at absorbing states).
  std::vector<double> weights;
  /// ∫₀^duration Σ_i w_i(t) dt — the phase's survival-time integral
  /// (its MTTSF contribution).
  double survival_integral = 0.0;
  /// ∫₀^duration ⟨f_k, w(t)⟩ dt per supplied functional f_k (rate
  /// rewards: cost components, absorption fluxes, ...).
  std::vector<double> functional_integrals;
  /// Σ_i w_i(t_j) at each requested emit time (linear interpolation on
  /// the integration grid, clamped to [0, 1]).
  std::vector<double> survival_at;
};

class ReliabilityOde {
 public:
  explicit ReliabilityOde(const ReachabilityGraph& graph);

  /// As above with per-edge rates overriding the stored ones —
  /// `edge_rates[i]` replaces `graph.edges[i].rate` (the
  /// AbsorbingAnalyzer::solve(edge_rates) idiom: one explored
  /// structure, one rate vector per sweep point or mission phase).
  ReliabilityOde(const ReachabilityGraph& graph,
                 std::span<const double> edge_rates);

  /// Advances the transient distribution `initial` (full-state
  /// indexing; entries at absorbing states must be zero — absorbed mass
  /// has left the survival problem) through `duration` seconds of this
  /// generator with Crank–Nicolson steps.  Accumulates the
  /// survival-time integral, one rate integral per functional in
  /// `functionals` (each full-state indexed), and Σw at each
  /// `emit_times` entry (ascending, within [0, duration]).  Empty
  /// `initial` means the graph's initial state, so
  /// propagate({}, t_max, {}, times).survival_at is R(times).
  [[nodiscard]] ForwardResult propagate(
      std::span<const double> initial, double duration,
      std::span<const std::vector<double>> functionals,
      std::span<const double> emit_times,
      const ReliabilityOdeOptions& opts = {}) const;

 private:
  TransientStructure structure_;
  std::vector<double> rates_;  // per-edge rates of this generator
  std::vector<double> exit_;   // total exit rate per transient state
};

}  // namespace midas::spn
