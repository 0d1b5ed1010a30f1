// PR 10 CI gate: the variance-reduction subsystem on the rare_event
// preset (hot λq, 2×2 grid t_ids × n_init — see the preset comment for
// why each corner showcases one estimator).
//
// Three gates, all recorded in BENCH_vr.json:
//
//   1. vr determinism — the whole rare_event answer (plain mc payload
//      AND the sobol/cv/splitting vr payloads) must be BITWISE
//      identical across 1/2/4 worker threads: every vr estimator keys
//      its streams by (point, replicate), never by thread identity.
//   2. cv_efficiency — at the (t_ids=15, N=20) corner the control
//      variate's work-normalised efficiency on the DES MTTSF must stay
//      >= 5×: variance_ratio × est/(est + pilot), i.e. the plain/
//      adjusted variance ratio discounted by the pilot trajectories
//      spent learning β.
//   3. splitting_tail — at the (t_ids=1200, N=12) corner the
//      fixed-effort splitting estimate must contain the analytic
//      p_failure_c2 (≈3e-6) within mean ± 2× its 95% half-width (the
//      2× margin absorbs the product estimator's replicate-level skew),
//      while the PLAIN pass at the same corner — which never observes a
//      C2 trajectory — must flag its failure proportion one-sided
//      rather than report a dishonest ±0 interval.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"

namespace {

using namespace midas;

/// Work-normalised efficiency of an estimator whose 95% half-width is
/// `hw` after `work` trajectories, against a plain baseline: the factor
/// by which the estimator shrinks variance-per-trajectory.  Uses only
/// Summary half-widths, so it is convention-free.
double work_efficiency(double hw_plain, double work_plain, double hw,
                       double work) {
  if (hw <= 0.0 || work <= 0.0) return 0.0;
  return (hw_plain * hw_plain * work_plain) / (hw * hw * work);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "PR 10: variance reduction (scrambled Sobol / control variates / "
      "multilevel splitting)",
      "vr estimators are thread-count invariant, the TTSF control "
      "variate buys >= 5x work-normalised efficiency, and splitting "
      "resolves a ~3e-6 tail the plain budget cannot see");

  const auto spec = core::experiment_preset("rare_event", smoke);
  const auto grid = spec.grid();
  auto json = bench::artifact("vr", smoke, grid.num_points());
  bool ok = true;

  // --- 1. Bitwise determinism across worker-thread counts. ------------
  std::string reference;
  bool det_ok = true;
  core::ExperimentResult result;  // the 1-thread answer, reused below
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    core::ExperimentService service({.threads = threads});
    auto run = service.run(spec);
    const std::string bytes = run.canonical_json().at("backends").dump();
    if (reference.empty()) {
      reference = bytes;
      result = std::move(run);
    } else {
      det_ok = det_ok && bytes == reference;
    }
  }
  std::printf("vr determinism: 1/2/4-thread canonical payloads %s\n\n",
              det_ok ? "bitwise identical" : "DIFFER");
  json.set("thread_determinism",
           util::Json(std::string(det_ok ? "bitwise" : "DIFFERS")));
  ok &= det_ok;

  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& des = result.at(core::BackendKind::Des);

  // --- Per-point work-normalised efficiency report. -------------------
  util::Table table({"point", "plain TTSF ± CI", "sobol ± CI", "sobol eff",
                     "CV eff", "CV corr"});
  for (std::size_t i = 0; i < des.mc.size(); ++i) {
    const auto& mc = des.mc[i];
    const auto& vr = des.vr[i];
    const auto& so = vr.sobol;
    const double sobol_work = static_cast<double>(so.replicates) *
                              static_cast<double>(so.samples_per_replicate);
    const double sobol_eff = work_efficiency(
        mc.ttsf.ci_half_width, static_cast<double>(mc.replications),
        so.ttsf.ci_half_width, sobol_work);
    const auto& cv = vr.cv.ttsf;
    const double est = static_cast<double>(vr.cv.replications - vr.cv.pilot);
    const double cv_eff = cv.variance_ratio *
                          est / static_cast<double>(vr.cv.replications);
    table.add_row({grid.label(i),
                   util::Table::sci(mc.ttsf.mean) + " ± " +
                       util::Table::sci(mc.ttsf.ci_half_width, 1),
                   util::Table::sci(so.ttsf.mean) + " ± " +
                       util::Table::sci(so.ttsf.ci_half_width, 1),
                   util::Table::fix(sobol_eff, 2),
                   util::Table::fix(cv_eff, 2), util::Table::fix(cv.correlation, 3)});
  }
  table.print(std::cout);
  std::printf("\n");

  // --- 2. CV efficiency gate at the (t_ids=15, N=20) corner. ----------
  const std::size_t cv_pt = 0;
  const auto& cv_res = des.vr[cv_pt].cv;
  const double cv_est =
      static_cast<double>(cv_res.replications - cv_res.pilot);
  const double cv_eff = cv_res.ttsf.variance_ratio * cv_est /
                        static_cast<double>(cv_res.replications);
  const double cv_floor = 5.0;
  const bool cv_ok = cv_eff >= cv_floor;
  std::printf("cv_efficiency at %s: variance ratio %.2f, correlation "
              "%.3f, work-normalised %.2fx (pilot %zu of %zu)  -> %s\n",
              grid.label(cv_pt).c_str(), cv_res.ttsf.variance_ratio,
              cv_res.ttsf.correlation, cv_eff, cv_res.pilot,
              cv_res.replications, cv_ok ? "ok" : "BELOW 5x");
  json.set("cv_variance_ratio",
           util::Json::number(cv_res.ttsf.variance_ratio));
  json.set("cv_work_normalised_efficiency", util::Json::number(cv_eff));
  json.set("cv_efficiency_floor", util::Json::number(cv_floor));
  json.set("cv_efficiency_margin", util::Json::number(cv_eff - cv_floor));
  json.set("cv_gate", util::Json(std::string(cv_ok ? "ok" : "BELOW 5x")));
  ok &= cv_ok;

  // --- 3. Splitting tail gate at the (t_ids=1200, N=12) corner. -------
  const std::size_t sp_pt = 3;
  const auto& sp = des.vr[sp_pt].splitting;
  const double p2 = evals[sp_pt].p_failure_c2;
  const bool sp_in = !sp.probability.one_sided &&
                     std::abs(sp.probability.mean - p2) <=
                         2.0 * sp.probability.ci_half_width;
  const auto& plain = des.mc[sp_pt];
  const bool plain_honest = plain.p_failure.one_sided;
  std::printf("splitting_tail at %s: estimate %.3e ± %.1e (%zu "
              "trajectories), analytic p_failure_c2 %.3e, inside 2x CI "
              "%s\n",
              grid.label(sp_pt).c_str(), sp.probability.mean,
              sp.probability.ci_half_width, sp.trajectories, p2,
              sp_in ? "yes" : "NO");
  std::printf("plain-MC honesty at %s: %zu/%zu C1 absorptions, 0 C2 — "
              "p_failure interval flagged one-sided %s\n\n",
              grid.label(sp_pt).c_str(), plain.failures_c1,
              plain.replications, plain_honest ? "yes" : "NO (REGRESSION)");
  json.set("splitting_estimate", util::Json::number(sp.probability.mean));
  json.set("splitting_half_width",
           util::Json::number(sp.probability.ci_half_width));
  json.set("splitting_analytic", util::Json::number(p2));
  json.set("splitting_trajectories",
           util::Json(static_cast<double>(sp.trajectories)));
  json.set("splitting_gate",
           util::Json(std::string(sp_in ? "ok" : "OUTSIDE 2x CI")));
  json.set("plain_one_sided",
           util::Json(std::string(plain_honest ? "yes" : "no")));
  ok &= sp_in && plain_honest;

  json.set("gate", util::Json(std::string(ok ? "ok" : "REGRESSION")));
  bench::write_artifact(json, "BENCH_vr.json");
  return ok ? 0 : 1;
}
