// Quickstart: build the paper's GCS+IDS model at the Section 5 default
// parameters, solve it, sweep the detection interval to find the
// optimal TIDS — the paper's headline exercise — then ask the follow-up
// questions as declarative ExperimentSpecs answered by
// core::ExperimentService (the JSON-serialisable API every bench and
// tool speaks): cross-validate the optimum by CI-bounded Monte-Carlo
// simulation, and answer a multi-dimensional (m × TIDS) design grid
// analytically + by simulation, all in ~110 lines.
#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/gcs_spn_model.h"
#include "core/optimizer.h"
#include "util/table.h"

int main() {
  using namespace midas;

  // 1. Paper defaults: N=100, λq=1/min, λc=1/12hr, m=5, p1=p2=1%,
  //    linear attacker, linear detection.
  core::Params params = core::Params::paper_defaults();

  // 2. Solve a single design point (TIDS = 120 s).
  params.t_ids = 120.0;
  const core::GcsSpnModel model(params);
  const auto eval = model.evaluate();
  std::printf("single point: TIDS = %.0f s\n", params.t_ids);
  std::printf("  MTTSF        = %.4e s  (%.1f days)\n", eval.mttsf,
              eval.mttsf / 86400.0);
  std::printf("  Ctotal       = %.4e hop-bits/s\n", eval.ctotal);
  std::printf("  P[C1 leak]   = %.3f   P[C2 byzantine] = %.3f\n",
              eval.p_failure_c1, eval.p_failure_c2);
  std::printf("  states       = %zu\n\n", eval.num_states);

  // 3. Sweep the paper's TIDS grid and report the optima.
  const auto grid = core::paper_t_ids_grid();
  const auto sweep = core::sweep_t_ids(params, grid);

  util::Table table({"TIDS(s)", "MTTSF(s)", "Ctotal(hop-bits/s)", "P[C1]"});
  for (const auto& pt : sweep.points) {
    table.add_row({util::Table::fix(pt.t_ids, 0),
                   util::Table::sci(pt.eval.mttsf),
                   util::Table::sci(pt.eval.ctotal),
                   util::Table::fix(pt.eval.p_failure_c1, 3)});
  }
  table.print(std::cout);

  std::printf("\noptimal TIDS for MTTSF : %.0f s (MTTSF = %.3e s)\n",
              sweep.best_mttsf().t_ids, sweep.best_mttsf().eval.mttsf);
  std::printf("optimal TIDS for Ctotal: %.0f s (Ctotal = %.3e)\n",
              sweep.best_ctotal().t_ids, sweep.best_ctotal().eval.ctotal);

  // 4. Validate the optimum by simulation: a one-point ExperimentSpec
  //    answered analytically AND by CRN-batched Monte-Carlo with
  //    CI-targeted stopping, in one service call.
  core::ExperimentService service;
  core::ExperimentSpec check;
  check.name = "quickstart_check";
  check.base = params;
  core::AxisSpec best_t;
  best_t.param = "t_ids";
  best_t.values = {sweep.best_mttsf().t_ids};
  check.axes = {best_t};
  check.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  check.mc.rel_ci_target = 0.10;  // stop at a 10% relative 95% CI
  const auto checked = service.run(check);
  const auto& v_eval = checked.at(core::BackendKind::Analytic).evals.front();
  const auto& v = checked.at(core::BackendKind::Des).mc.front();
  std::printf("\nsimulation check at TIDS = %.0f s: MTTSF = %.3e ± %.1e "
              "(%zu replications, analytic %s the 95%% CI)\n",
              best_t.values.front(), v.ttsf.mean, v.ttsf.ci_half_width,
              v.replications,
              v.ttsf.contains(v_eval.mttsf) ? "inside" : "OUTSIDE");

  // 5. The design space is multi-dimensional — the same kind of request
  //    over named (m × TIDS) axes.  One structure exploration serves
  //    every point; the Monte-Carlo substreams are keyed by replication
  //    only (CRN), with antithetic pairs layered on top, so contrasts
  //    along BOTH axes are variance-reduced.
  core::ExperimentSpec request;
  request.name = "quickstart";
  request.base = params;
  core::AxisSpec m_axis;
  m_axis.param = "num_voters";
  m_axis.values = {3, 9};
  core::AxisSpec t_axis;
  t_axis.param = "t_ids";
  t_axis.values = {60.0, 480.0};
  request.axes = {m_axis, t_axis};
  request.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  request.mc.rel_ci_target = 0.05;
  request.mc.antithetic = true;
  request.mc.base_seed = 0xFACADE;

  const auto result = service.run(request);
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& des = result.at(core::BackendKind::Des);
  std::printf("\ngrid run (m x TIDS), analytic vs simulation:\n");
  for (std::size_t i = 0; i < evals.size(); ++i) {
    std::printf("  %-22s MTTSF %.3e | sim %.3e ± %.1e (%s)\n",
                request.grid().label(i).c_str(), evals[i].mttsf,
                des.mc[i].ttsf.mean, des.mc[i].ttsf.ci_half_width,
                des.mc[i].ttsf.contains(evals[i].mttsf) ? "inside CI"
                                                        : "OUTSIDE CI");
  }
  std::printf("\nspec serialises to %zu bytes of JSON "
              "(ExperimentSpec::to_json) — try tools/run_experiment\n",
              request.to_json().dump().size());
  return 0;
}
