// Figure 4 reproduction: MTTSF vs TIDS for the three detection functions
// (logarithmic / linear / polynomial) under a LINEAR attacker, m = 5 —
// the "fig4" experiment preset through core::ExperimentService plus the
// "fig4_val" CI-bounded validation twin (CRN + antithetic pairs).
// `--smoke` thins the validation grid; exits non-zero on a validation
// regression.
//
// Paper claims checked here:
//   * every detection function has its own optimal TIDS;
//   * the linear detection function (matching the linear attacker) wins
//     overall;
//   * the aggressive polynomial detection does best when TIDS is large,
//     the conservative logarithmic detection when TIDS is small.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Figure 4: MTTSF vs TIDS per detection function (linear attacker, "
      "m = 5)",
      "linear detection best overall; poly best at large TIDS; log best "
      "at small TIDS");

  core::ExperimentService service;

  const auto fig_spec = core::experiment_preset("fig4", smoke);
  const auto fig_grid = fig_spec.grid();
  const auto fig = service.run(fig_spec);
  const auto series = bench::series_from_grid(
      fig_grid, fig.at(core::BackendKind::Analytic).evals);
  bench::report(fig_spec.axes.back().values, series, bench::Metric::Mttsf,
                "fig4_mttsf_vs_detection.csv");
  bench::print_engine_stats(service.sweep_engine());

  // The paper's crossover claims, stated explicitly for the harness log:
  const auto& log_pts = series[0].sweep.points;
  const auto& lin_pts = series[1].sweep.points;
  const auto& poly_pts = series[2].sweep.points;
  std::printf("crossover checks:\n");
  std::printf("  smallest TIDS (%g s): log %s poly  (paper: log wins)\n",
              log_pts.front().t_ids,
              log_pts.front().eval.mttsf > poly_pts.front().eval.mttsf
                  ? ">"
                  : "<=");
  std::printf("  largest TIDS (%g s): poly %s log  (paper: poly wins)\n",
              log_pts.back().t_ids,
              poly_pts.back().eval.mttsf > log_pts.back().eval.mttsf ? ">"
                                                                     : "<=");
  double best_lin = 0.0, best_other = 0.0;
  for (const auto& pt : lin_pts) best_lin = std::max(best_lin, pt.eval.mttsf);
  for (const auto& pt : log_pts)
    best_other = std::max(best_other, pt.eval.mttsf);
  for (const auto& pt : poly_pts)
    best_other = std::max(best_other, pt.eval.mttsf);
  std::printf("  overall: linear %s {log, poly}  (paper: linear wins)\n\n",
              best_lin >= best_other ? ">=" : "<");

  const auto val = service.run(core::experiment_preset("fig4_val", smoke));
  auto json = bench::artifact("fig4_mttsf_vs_detection", smoke,
                              fig_grid.num_points());
  const bool ok = bench::report_validation(val, json);
  bench::write_artifact(json, "BENCH_fig4.json");
  return ok ? 0 : 1;
}
