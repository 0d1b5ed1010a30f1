// Figure 3 reproduction: total communication cost Ĉtotal vs TIDS as the
// number of vote-participants m varies (linear attacker & detection) —
// the "fig3" experiment preset through core::ExperimentService plus the
// "fig3_val" CI-bounded validation twin (CRN + antithetic pairs).
// `--smoke` thins the validation grid; exits non-zero on a validation
// regression.
//
// Paper claims checked here:
//   * each curve has a cost-minimising TIDS (tradeoff: shorter TIDS →
//     more IDS/eviction traffic; longer TIDS → more surviving members →
//     more group-communication traffic);
//   * larger m → higher Ĉtotal (fewer false evictions keep more members
//     active, plus more voting traffic);
//   * the optimal TIDS location is less sensitive to m than in Fig. 2.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Figure 3: effect of m on Ctotal and optimal TIDS",
      "unimodal cost curves; larger m -> higher Ctotal; cost-optimal "
      "TIDS insensitive to m");

  core::ExperimentService service;

  const auto fig_spec = core::experiment_preset("fig3", smoke);
  const auto fig_grid = fig_spec.grid();
  const auto fig = service.run(fig_spec);
  bench::report(fig_spec.axes.back().values,
                bench::series_from_grid(
                    fig_grid, fig.at(core::BackendKind::Analytic).evals),
                bench::Metric::Ctotal, "fig3_cost_vs_m.csv");
  bench::print_engine_stats(service.sweep_engine());

  const auto val = service.run(core::experiment_preset("fig3_val", smoke));
  auto json = bench::artifact("fig3_cost_vs_m", smoke,
                              fig_grid.num_points());
  const bool ok = bench::report_validation(val, json);
  bench::write_artifact(json, "BENCH_fig3.json");
  return ok ? 0 : 1;
}
