// Monte-Carlo engine benchmark, run on the val_des_vs_spn workload
// (the "val_des" experiment preset: 4-point TIDS validation grid,
// scaled-down population).  Measures, in the same process:
//   * the seed-era per-point replication loop — a fresh voting table
//     per trajectory, every trajectory stored, a uniform fixed
//     replication count sized for the hardest grid point
//     (run_replications_reference), and
//   * the service path — the same declarative spec every consumer runs:
//     shared per-point contexts, streaming Welford summaries,
//     CI-targeted sequential stopping, one (point × block) parallel_for
//     schedule (core::ExperimentService → sim::MonteCarloEngine),
// at EQUAL confidence-interval width: the baseline runs the uniform
// replication count the engine needed at its worst point, which is the
// conservative choice an experimenter without sequential stopping must
// make.  Also measures the CRN variance reduction on adjacent-point
// curve contrasts (common vs independent random-number substreams) and
// the antithetic-pair variance reduction layered on top of CRN
// (per-point estimator variance and pooled contrast variance, measured
// on the Fig. 2 m-axis at equal trajectory budget) — every arm is a
// spec variation run through the SAME service — and writes
// BENCH_mc.json so the trajectory is tracked PR-on-PR.
//
// `--smoke` loosens the CI target and shrinks the variance-measurement
// budgets for CI runtimes.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "sim/des.h"
#include "util/stopwatch.h"

namespace {

using namespace midas;

/// Sample variance of the per-replication contrast ttsf_a[r] - ttsf_b[r].
double contrast_variance(const std::vector<sim::Trajectory>& a,
                         const std::vector<sim::Trajectory>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  sim::Welford w;
  for (std::size_t r = 0; r < n; ++r) w.push(a[r].ttsf - b[r].ttsf);
  return w.variance();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);

  bench::print_header(
      "Monte-Carlo engine: val_des grid, seed loop vs batched service",
      "CI-adaptive batched replications >= 3x over the per-point loop at "
      "equal CI width; analytic values inside the 95% CIs; CRN contrasts "
      "below independent-stream variance; antithetic pairs below plain "
      "CRN variance");

  // --- Service path: analytic + CI-bounded simulation from one spec.
  const auto spec = core::experiment_preset("val_des", smoke);
  const double target = spec.mc.rel_ci_target;
  const auto& grid = spec.axes[0].values;
  core::ExperimentService service;
  const auto result = service.run(spec);
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& des = result.at(core::BackendKind::Des);
  const double engine_seconds = des.mc_stats.seconds;

  std::size_t max_reps = 0;
  bool converged_all = true;
  std::size_t inside = 0;
  util::Table table({"TIDS(s)", "MTTSF analytic", "MTTSF sim (95% CI)",
                     "reps", "inside CI"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& mc = des.mc[i];
    max_reps = std::max(max_reps, mc.replications);
    converged_all = converged_all && mc.converged;
    if (mc.ttsf.contains(evals[i].mttsf)) ++inside;
    table.add_row({util::Table::fix(grid[i], 0),
                   util::Table::sci(evals[i].mttsf),
                   util::Table::sci(mc.ttsf.mean) + " ± " +
                       util::Table::sci(mc.ttsf.ci_half_width, 1),
                   std::to_string(mc.replications),
                   mc.ttsf.contains(evals[i].mttsf) ? "yes" : "NO"});
  }
  table.print(std::cout);

  // --- Baseline at equal CI width: the uniform fixed count that covers
  // the hardest point, through the preserved seed-era loop.
  const util::Stopwatch baseline_watch;
  double worst_baseline_width = 0.0;
  for (const double t : grid) {
    core::Params p = spec.base;
    p.t_ids = t;
    const auto r =
        sim::run_replications_reference(p, max_reps, 0xFACADE, 0);
    worst_baseline_width = std::max(
        worst_baseline_width, r.ttsf.ci_half_width / r.ttsf.mean);
  }
  const double baseline_seconds = baseline_watch.seconds();
  const std::size_t baseline_reps = grid.size() * max_reps;
  const double speedup = baseline_seconds / engine_seconds;

  std::printf("\nCI target (rel):  %.3f   engine worst achieved: ok=%s\n",
              target, converged_all ? "yes" : "NO");
  std::printf("service:          %.3f s  (%zu replications, %zu rounds, "
              "%.3e trajectories/s)\n",
              engine_seconds, des.mc_stats.replications,
              des.mc_stats.rounds,
              static_cast<double>(des.mc_stats.replications) /
                  engine_seconds);
  std::printf("seed-era loop:    %.3f s  (%zu replications, worst rel "
              "width %.3f)\n",
              baseline_seconds, baseline_reps, worst_baseline_width);
  std::printf("speedup:          %.1fx  (%s 3x)\n", speedup,
              speedup >= 3.0 ? ">=" : "BELOW");
  std::printf("analytic inside simulation 95%% CI: %zu/%zu\n",
              inside, grid.size());

  // --- CRN vs independent substreams: variance of adjacent-point curve
  // contrasts at a fixed replication count — the same spec with the
  // schedule pinned and trajectories captured.
  const std::size_t crn_reps = smoke ? 200 : 400;
  auto run_captured = [&](bool crn) {
    core::ExperimentSpec variant = spec;
    variant.backends = {core::BackendKind::Des};
    variant.mc.rel_ci_target = 0.0;
    variant.mc.min_replications = crn_reps;
    variant.mc.max_replications = crn_reps;
    variant.mc.crn = crn;
    variant.mc.capture_trajectories = true;
    return service.run(variant).at(core::BackendKind::Des).mc;
  };
  const auto crn_run = run_captured(true);
  const auto ind_run = run_captured(false);

  std::printf("\nCRN contrast variance (adjacent TIDS pairs, %zu reps):\n",
              crn_reps);
  double ratio_min = 1e300, ratio_sum = 0.0;
  for (std::size_t k = 0; k + 1 < grid.size(); ++k) {
    const double var_crn = contrast_variance(crn_run[k].trajectories,
                                             crn_run[k + 1].trajectories);
    const double var_ind = contrast_variance(ind_run[k].trajectories,
                                             ind_run[k + 1].trajectories);
    const double ratio = var_ind / var_crn;
    ratio_min = std::min(ratio_min, ratio);
    ratio_sum += ratio;
    std::printf("  TIDS %4.0f vs %4.0f: var(indep)/var(CRN) = %.2f\n",
                grid[k], grid[k + 1], ratio);
  }
  const double ratio_mean = ratio_sum / static_cast<double>(grid.size() - 1);
  std::printf("  mean variance ratio: %.2f  (%s 1)\n", ratio_mean,
              ratio_mean > 1.0 ? ">" : "NOT >");

  // --- Antithetic pairs vs plain CRN at equal trajectory budget, on
  // the Fig. 2 m-axis (contrasts along a non-TIDS grid axis — what the
  // replication-keyed substreams make possible).  Two measures:
  //   * per-point estimator variance: Var of the TTSF mean from n
  //     trajectories as n/2 pair averages vs n plain replications;
  //   * pooled contrast variance: same, for adjacent-m curve contrasts,
  //     pooled over the m pairs (pooling keeps the ratio stable when an
  //     individual contrast's antithetic variance is near zero).
  const std::size_t anti_pairs = smoke ? 600 : 1200;
  const std::vector<double> m_values{3, 5, 7, 9};
  auto run_anti = [&](bool antithetic) {
    core::ExperimentSpec variant = spec;
    variant.backends = {core::BackendKind::Des};
    variant.base.t_ids = 60.0;
    core::AxisSpec m_axis;
    m_axis.param = "num_voters";
    m_axis.values = m_values;
    variant.axes = {m_axis};
    variant.mc.rel_ci_target = 0.0;
    variant.mc.min_replications = antithetic ? anti_pairs : 2 * anti_pairs;
    variant.mc.max_replications = variant.mc.min_replications;
    variant.mc.crn = true;
    variant.mc.antithetic = antithetic;
    variant.mc.capture_trajectories = true;
    return service.run(variant).at(core::BackendKind::Des).mc;
  };
  const auto plain_run = run_anti(false);
  const auto anti_run = run_anti(true);
  const double n_traj = static_cast<double>(2 * anti_pairs);

  std::printf("\nantithetic pairs vs plain CRN (m axis at TIDS = 60 s, "
              "%zu trajectories each):\n",
              2 * anti_pairs);
  double point_ratio_sum = 0.0;
  for (std::size_t p = 0; p < m_values.size(); ++p) {
    sim::Welford wp, wa;
    for (const auto& t : plain_run[p].trajectories) wp.push(t.ttsf);
    const auto& at = anti_run[p].trajectories;
    for (std::size_t k = 0; k + 1 < at.size(); k += 2) {
      wa.push(0.5 * (at[k].ttsf + at[k + 1].ttsf));
    }
    const double est_var_plain = wp.variance() / n_traj;
    const double est_var_anti =
        wa.variance() / static_cast<double>(anti_pairs);
    const double ratio = est_var_plain / est_var_anti;
    point_ratio_sum += ratio;
    std::printf("  m=%.0f: estimator-variance ratio plain/antithetic = "
                "%.2f\n",
                m_values[p], ratio);
  }
  const double anti_point_ratio =
      point_ratio_sum / static_cast<double>(m_values.size());

  double contrast_var_plain = 0.0, contrast_var_anti = 0.0;
  for (std::size_t p = 0; p + 1 < m_values.size(); ++p) {
    sim::Welford wp, wa;
    for (std::size_t r = 0; r < 2 * anti_pairs; ++r) {
      wp.push(plain_run[p].trajectories[r].ttsf -
              plain_run[p + 1].trajectories[r].ttsf);
    }
    for (std::size_t k = 0; k + 1 < 2 * anti_pairs; k += 2) {
      const double d0 = anti_run[p].trajectories[k].ttsf -
                        anti_run[p + 1].trajectories[k].ttsf;
      const double d1 = anti_run[p].trajectories[k + 1].ttsf -
                        anti_run[p + 1].trajectories[k + 1].ttsf;
      wa.push(0.5 * (d0 + d1));
    }
    contrast_var_plain += wp.variance() / n_traj;
    contrast_var_anti += wa.variance() / static_cast<double>(anti_pairs);
  }
  const double anti_contrast_ratio = contrast_var_plain / contrast_var_anti;
  std::printf("  mean point estimator-variance ratio: %.2f  (%s 1)\n",
              anti_point_ratio, anti_point_ratio > 1.0 ? ">" : "NOT >");
  std::printf("  pooled adjacent-m contrast-variance ratio: %.2f  (%s 1)\n",
              anti_contrast_ratio, anti_contrast_ratio > 1.0 ? ">" : "NOT >");

  auto json = bench::artifact("mc_val_grid", smoke, grid.size());
  json.set("rel_ci_target", util::Json::number(target));
  json.set("engine_seconds", util::Json::number(engine_seconds));
  json.set("engine_replications",
           util::Json(static_cast<double>(des.mc_stats.replications)));
  json.set("trajectories_per_second",
           util::Json::number(
               static_cast<double>(des.mc_stats.replications) /
               engine_seconds));
  json.set("baseline_seconds", util::Json::number(baseline_seconds));
  json.set("baseline_replications",
           util::Json(static_cast<double>(baseline_reps)));
  json.set("speedup", util::Json::number(speedup));
  json.set("worst_baseline_rel_width",
           util::Json::number(worst_baseline_width));
  json.set("analytic_inside_ci", util::Json(static_cast<double>(inside)));
  json.set("crn_variance_ratio_mean", util::Json::number(ratio_mean));
  json.set("crn_variance_ratio_min", util::Json::number(ratio_min));
  json.set("antithetic_pairs",
           util::Json(static_cast<double>(anti_pairs)));
  json.set("antithetic_point_variance_ratio",
           util::Json::number(anti_point_ratio));
  json.set("antithetic_contrast_variance_ratio",
           util::Json::number(anti_contrast_ratio));
  bench::write_artifact(json, "BENCH_mc.json");

  // Non-zero exit so CI catches a perf or correctness regression.  One
  // CI miss out of four points is expected Monte-Carlo behaviour; the
  // antithetic gates require a genuine (> 1x) variance reduction over
  // plain CRN on both the per-point estimators and the pooled curve
  // contrasts.
  const bool ok = speedup >= 3.0 && converged_all &&
                  inside + 1 >= grid.size() && ratio_mean > 1.0 &&
                  anti_point_ratio > 1.0 && anti_contrast_ratio > 1.0;
  return ok ? 0 : 1;
}
