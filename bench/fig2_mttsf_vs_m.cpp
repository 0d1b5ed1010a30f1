// Figure 2 reproduction: MTTSF vs TIDS as the number of vote-
// participants m varies (linear attacker, linear detection) — the
// "fig2" experiment preset run through core::ExperimentService, then
// validated per point by the "fig2_val" preset (analytic + DES
// backends, CRN + antithetic pairs) instead of spot checks.  `--smoke`
// thins the validation grid and loosens the CI target for CI runtimes;
// exits non-zero if the analytic values leave the simulation CIs.
//
// Paper claims checked here:
//   * each m-curve is unimodal in TIDS (rises to an optimum, then falls);
//   * larger m → larger MTTSF (lower false-alarm probability);
//   * larger m → SMALLER optimal TIDS (paper: 480/60/15/5 s for
//     m = 3/5/7/9).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Figure 2: effect of m on MTTSF and optimal TIDS",
      "unimodal curves; larger m -> larger MTTSF, smaller optimal TIDS "
      "(paper: 480/60/15/5 s for m=3/5/7/9)");

  // One service: the figure grid and its validation twin share the
  // explored structure cache.
  core::ExperimentService service;

  // The figure: the full (m × TIDS) design slice as one spec.
  const auto fig_spec = core::experiment_preset("fig2", smoke);
  const auto fig_grid = fig_spec.grid();
  const auto fig = service.run(fig_spec);
  bench::report(fig_spec.axes.back().values,
                bench::series_from_grid(
                    fig_grid, fig.at(core::BackendKind::Analytic).evals),
                bench::Metric::Mttsf, "fig2_mttsf_vs_m.csv");
  bench::print_engine_stats(service.sweep_engine());

  // CI-bounded validation: the same design slice (thinned in smoke
  // mode) answered analytically AND by simulation from one spec.
  const auto val = service.run(core::experiment_preset("fig2_val", smoke));
  auto json = bench::artifact("fig2_mttsf_vs_m", smoke,
                              fig_grid.num_points());
  const bool ok = bench::report_validation(val, json);
  bench::write_artifact(json, "BENCH_fig2.json");
  return ok ? 0 : 1;
}
