// PR 9 CI gate: phased missions and time-inhomogeneous dynamics.
//
// Three checks, all recorded in BENCH_mission.json:
//
//   1. Bitwise parity — a constant schedule (one identity segment) and
//      a constant mission (one all-inherit phase) must reproduce the
//      no-schedule canonical backend payloads BYTE-FOR-BYTE: identity
//      multipliers are IEEE-exact and every backend keeps its legacy
//      draw/solve sequence when exactly one timeline segment resolves.
//   2. mission_phased — the chained analytic R(t) (core::MissionAnalyzer
//      across infiltration/assault/recovery boundaries) must sit inside
//      the DES 95% Wilson survival CIs, and the chained MTTSF inside
//      the DES TTSF CIs, at the paper's N=100.
//   3. attacker_surge — the λc×4 surge schedule runs through all three
//      backends (analytic chain, breakpointed Gillespie, per-tick
//      protocol rates); analytic MTTSF gated against the DES CI.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/mission.h"

namespace {

using namespace midas;

/// Runs `spec` twice — once as given, once with the constant variation
/// attached by `mutate` — and byte-compares the canonical backend
/// payloads (the spec documents legitimately differ; the OUTPUTS must
/// not).
bool parity_case(core::ExperimentService& service,
                 const core::ExperimentSpec& spec, const char* what,
                 void (*mutate)(core::Params&), util::Json& json) {
  core::ExperimentSpec varied = spec;
  mutate(varied.base);
  const std::string plain =
      service.run(spec).canonical_json().at("backends").dump();
  const std::string timed =
      service.run(varied).canonical_json().at("backends").dump();
  const bool ok = plain == timed;
  std::printf("constant-%s parity on '%s': %s\n", what, spec.name.c_str(),
              ok ? "bitwise identical" : "PAYLOADS DIFFER");
  json.set(std::string("parity_") + what,
           util::Json(std::string(ok ? "bitwise" : "DIFFERS")));
  return ok;
}

void attach_identity_schedule(core::Params& p) {
  core::ScheduleSegment seg;  // identity multipliers, runs forever
  seg.name = "constant";
  p.schedule.segments = {seg};
}

void attach_inherit_mission(core::Params& p) {
  core::MissionPhase phase;  // all-inherit overrides, runs forever
  phase.name = "whole-mission";
  p.mission.phases = {phase};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "PR 9: phased missions & time-inhomogeneous dynamics",
      "constant schedules are bitwise the legacy model; phased analytic "
      "R(t)/MTTSF chains sit inside the DES confidence intervals");

  core::ExperimentService service;
  auto json = bench::artifact("mission_phased", smoke, 0);
  bool ok = true;

  // --- 1. Constant-variation bitwise parity. --------------------------
  const auto parity_spec = core::experiment_preset("val_des", true);
  ok &= parity_case(service, parity_spec, "schedule",
                    attach_identity_schedule, json);
  ok &= parity_case(service, parity_spec, "mission", attach_inherit_mission,
                    json);
  std::printf("\n");

  // --- 2. Phased mission at paper N=100: analytic chain vs DES. -------
  const auto spec = core::experiment_preset("mission_phased", smoke);
  const auto grid = spec.grid();
  json.set("grid_points", util::Json(static_cast<double>(grid.num_points())));
  const auto result = service.run(spec);
  const auto& analytic = result.at(core::BackendKind::Analytic);
  const auto& evals = analytic.evals;
  const auto& des = result.at(core::BackendKind::Des);

  const auto& horizons_s = spec.mc.survival_horizons;
  std::vector<std::string> header{"TIDS(s)", "MTTSF an.", "MTTSF sim ± CI",
                                  "in CI"};
  for (const double s : horizons_s) {
    header.push_back("R(" + util::Table::fix(s / 3600.0, 0) + "h)");
    header.push_back("sim ± CI");
  }
  util::Table table(header);

  std::size_t r_inside = 0, r_cells = 0;
  std::size_t m_inside = 0;
  bool converged_all = true;
  for (std::size_t i = 0; i < grid.num_points(); ++i) {
    const core::MissionAnalyzer analyzer(grid.point(spec.base, i));
    const auto ev = evals[i];
    const auto r = analyzer.reliability_at(horizons_s);
    const auto& mc = des.mc[i];
    converged_all = converged_all && mc.converged;
    const bool mttsf_in = mc.ttsf.contains(ev.mttsf);
    if (mttsf_in) ++m_inside;

    std::vector<std::string> row{
        util::Table::fix(spec.axes[0].values[i], 0),
        util::Table::sci(ev.mttsf),
        util::Table::sci(mc.ttsf.mean) + " ± " +
            util::Table::sci(mc.ttsf.ci_half_width, 1),
        mttsf_in ? "yes" : "NO"};
    for (std::size_t h = 0; h < r.size(); ++h) {
      const auto& sim_r = mc.survival[h];
      row.push_back(util::Table::fix(r[h], 4));
      row.push_back(util::Table::fix(sim_r.mean, 3) + " ± " +
                    util::Table::fix(sim_r.ci_half_width, 3));
      if (sim_r.contains(r[h])) ++r_inside;
      ++r_cells;
    }
    table.add_row(row);
  }
  table.print(std::cout);

  // 95% intervals legitimately miss ~5% of cells; allow 15% like the
  // figure validations before flagging a regression.
  const std::size_t n = grid.num_points();
  const std::size_t r_allowed = std::max<std::size_t>(1, r_cells * 15 / 100);
  const std::size_t m_allowed = std::max<std::size_t>(1, n * 15 / 100);
  const bool phased_ok = converged_all &&
                         r_inside + r_allowed >= r_cells &&
                         m_inside + m_allowed >= n;
  ok &= phased_ok;
  std::printf("\nmission_phased: R(t) inside CI %zu/%zu, MTTSF inside CI "
              "%zu/%zu, converged %s (%zu trajectories, %.2f s)  -> %s\n",
              r_inside, r_cells, m_inside, n,
              converged_all ? "all" : "NOT ALL", des.mc_stats.replications,
              des.mc_stats.seconds, phased_ok ? "ok" : "REGRESSION");
  // The analytic backend's own wall clock: MissionAnalyzer::evaluate per
  // point (the R(t) table above is extra work outside it).
  const double analytic_ms_per_point =
      1e3 * analytic.seconds / static_cast<double>(n);
  std::printf("mission_phased analytic: %.3f s, %.1f ms per point\n\n",
              analytic.seconds, analytic_ms_per_point);
  json.set("phased_survival_cells", util::Json(static_cast<double>(r_cells)));
  json.set("phased_survival_inside_ci",
           util::Json(static_cast<double>(r_inside)));
  json.set("phased_mttsf_inside_ci",
           util::Json(static_cast<double>(m_inside)));
  json.set("phased_converged",
           util::Json(std::string(converged_all ? "yes" : "no")));
  json.set("phased_replications",
           util::Json(static_cast<double>(des.mc_stats.replications)));
  json.set("phased_analytic_seconds", util::Json::number(analytic.seconds));
  json.set("phased_analytic_ms_per_point",
           util::Json::number(analytic_ms_per_point));

  // --- 3. Surge schedule through all three backends. ------------------
  const auto surge_spec = core::experiment_preset("attacker_surge", smoke);
  const auto surge = service.run(surge_spec);
  const auto& s_evals = surge.at(core::BackendKind::Analytic).evals;
  const auto& s_des = surge.at(core::BackendKind::Des);
  const auto& s_proto = surge.at(core::BackendKind::ProtocolSim);

  util::Table s_table({"TIDS(s)", "MTTSF an.", "MTTSF des ± CI", "in CI",
                       "MTTSF proto"});
  std::size_t s_inside = 0;
  for (std::size_t i = 0; i < s_evals.size(); ++i) {
    const bool in = s_des.mc[i].ttsf.contains(s_evals[i].mttsf);
    if (in) ++s_inside;
    s_table.add_row({util::Table::fix(surge_spec.axes[0].values[i], 0),
                     util::Table::sci(s_evals[i].mttsf),
                     util::Table::sci(s_des.mc[i].ttsf.mean) + " ± " +
                         util::Table::sci(s_des.mc[i].ttsf.ci_half_width, 1),
                     in ? "yes" : "NO",
                     util::Table::sci(s_proto.mc[i].ttsf.mean)});
  }
  s_table.print(std::cout);
  const std::size_t s_allowed =
      std::max<std::size_t>(1, s_evals.size() * 15 / 100);
  const bool surge_ok = s_inside + s_allowed >= s_evals.size();
  ok &= surge_ok;
  std::printf("\nattacker_surge: analytic inside DES CI %zu/%zu  -> %s\n\n",
              s_inside, s_evals.size(), surge_ok ? "ok" : "REGRESSION");
  json.set("surge_points", util::Json(static_cast<double>(s_evals.size())));
  json.set("surge_inside_ci", util::Json(static_cast<double>(s_inside)));

  json.set("gate", util::Json(std::string(ok ? "ok" : "REGRESSION")));
  bench::write_artifact(json, "BENCH_mission.json");
  return ok ? 0 : 1;
}
