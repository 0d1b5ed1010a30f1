// Figure 5 reproduction: Ĉtotal vs TIDS for the three detection
// functions under a linear attacker, m = 5 — the "fig5" experiment
// preset through core::ExperimentService plus the "fig5_val" CI-bounded
// validation twin (CRN + antithetic pairs).  `--smoke` thins the
// validation grid; exits non-zero on a validation regression.
//
// Paper claims checked here:
//   * each detection function has a cost-minimising TIDS;
//   * logarithmic detection is the most expensive at large TIDS,
//     polynomial detection the most expensive at small TIDS;
//   * a less aggressive detection function prefers a SHORTER optimal
//     TIDS, an aggressive one a LONGER optimal TIDS.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Figure 5: Ctotal vs TIDS per detection function (linear attacker, "
      "m = 5)",
      "log detection worst at large TIDS, poly worst at small TIDS; "
      "optimal TIDS shifts right as detection becomes aggressive");

  core::ExperimentService service;

  const auto fig_spec = core::experiment_preset("fig5", smoke);
  const auto fig_grid = fig_spec.grid();
  const auto fig = service.run(fig_spec);
  const auto series = bench::series_from_grid(
      fig_grid, fig.at(core::BackendKind::Analytic).evals);
  bench::report(fig_spec.axes.back().values, series, bench::Metric::Ctotal,
                "fig5_cost_vs_detection.csv");
  bench::print_engine_stats(service.sweep_engine());

  const auto& log_pts = series[0].sweep.points;
  const auto& poly_pts = series[2].sweep.points;
  std::printf("crossover checks:\n");
  std::printf("  smallest TIDS (%g s): poly %s log cost (paper: poly "
              "costlier)\n",
              log_pts.front().t_ids,
              poly_pts.front().eval.ctotal > log_pts.front().eval.ctotal
                  ? ">"
                  : "<=");
  std::printf("  largest TIDS (%g s): log %s poly cost (paper: log "
              "costlier)\n",
              log_pts.back().t_ids,
              log_pts.back().eval.ctotal > poly_pts.back().eval.ctotal ? ">"
                                                                       : "<=");
  std::printf("  optimal-TIDS ordering: log %.0f s, linear %.0f s, poly "
              "%.0f s (paper: increasing)\n\n",
              series[0].sweep.best_ctotal().t_ids,
              series[1].sweep.best_ctotal().t_ids,
              series[2].sweep.best_ctotal().t_ids);

  const auto val = service.run(core::experiment_preset("fig5_val", smoke));
  auto json = bench::artifact("fig5_cost_vs_detection", smoke,
                              fig_grid.num_points());
  const bool ok = bench::report_validation(val, json);
  bench::write_artifact(json, "BENCH_fig5.json");
  return ok ? 0 : 1;
}
