// Extension E1: mission reliability R(t) = P[no security failure by t],
// the transient counterpart of MTTSF.  The paper expresses the security
// requirement as "MTTSF past the minimum mission time"; R(t) answers the
// sharper question a mission planner actually asks — the probability of
// surviving a CONCRETE mission duration — and shows how the optimal
// TIDS shifts with the mission length.
//
// The simulation side is the "mission" experiment preset: ONE
// ExperimentService run whose DES backend estimates R(t) as streaming
// survival-indicator proportions with 95% Wilson CIs at every
// (TIDS, horizon) cell.  The analytic R(t) values come from
// core::MissionAnalyzer::reliability_at — for this constant preset it
// routes bitwise through the forward transient integrator
// (GcsSpnModel::reliability_at: Crank–Nicolson steps as shifted block
// passes over the SCC condensation), and the same call chains across phase
// boundaries for the closing mission_phased comparison, which shows how
// a phased threat (infiltration → assault → recovery, the
// "mission_phased" preset) shifts the optimal TIDS versus the constant
// model.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/mission.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Extension E1: mission reliability R(t) per detection interval",
      "R(t) from the forward transient integrator; short missions tolerate "
      "longer TIDS than long missions; Monte-Carlo survival CIs agree");

  const auto spec = core::experiment_preset("mission", smoke);
  const auto grid_spec = spec.grid();
  core::ExperimentService service;
  const auto result = service.run(spec);
  const auto& des = result.at(core::BackendKind::Des);

  const auto& horizons_s = spec.mc.survival_horizons;
  std::vector<double> horizons_h;
  for (const double s : horizons_s) horizons_h.push_back(s / 3600.0);
  const auto& grid = spec.axes[0].values;

  std::vector<std::string> header{"TIDS(s)"};
  for (double h : horizons_h) {
    header.push_back("R(" + util::Table::fix(h, 0) + "h)");
    header.push_back("sim ± CI");
  }
  util::Table table(header);
  util::CsvWriter csv("ext_mission_reliability.csv");
  std::vector<std::string> csv_header{"t_ids"};
  for (double h : horizons_h) {
    csv_header.push_back("r_" + util::Table::fix(h, 0) + "h");
    csv_header.push_back("r_sim_" + util::Table::fix(h, 0) + "h");
    csv_header.push_back("r_sim_ci_" + util::Table::fix(h, 0) + "h");
  }
  csv.row(csv_header);

  double best_short = -1.0, best_long = -1.0;
  double argbest_short = 0.0, argbest_long = 0.0;
  std::size_t inside = 0, cells = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double t_ids = grid[i];
    const core::MissionAnalyzer analyzer(grid_spec.point(spec.base, i));
    const auto r = analyzer.reliability_at(horizons_s);

    std::vector<std::string> row{util::Table::fix(t_ids, 0)};
    std::vector<std::string> csv_row{util::CsvWriter::num(t_ids)};
    for (std::size_t h = 0; h < r.size(); ++h) {
      const auto& sim_r = des.mc[i].survival[h];
      row.push_back(util::Table::fix(r[h], 4));
      row.push_back(util::Table::fix(sim_r.mean, 3) + " ± " +
                    util::Table::fix(sim_r.ci_half_width, 3));
      csv_row.push_back(util::CsvWriter::num(r[h]));
      csv_row.push_back(util::CsvWriter::num(sim_r.mean));
      csv_row.push_back(util::CsvWriter::num(sim_r.ci_half_width));
      if (sim_r.contains(r[h])) ++inside;
      ++cells;
    }
    table.add_row(row);
    csv.row(csv_row);

    if (r.front() > best_short) {
      best_short = r.front();
      argbest_short = t_ids;
    }
    if (r.back() > best_long) {
      best_long = r.back();
      argbest_long = t_ids;
    }
  }
  table.print(std::cout);
  std::printf("\nbest TIDS for the %.0f h mission: %.0f s (R = %.4f)\n",
              horizons_h.front(), argbest_short, best_short);
  std::printf("best TIDS for the %.0f h mission: %.0f s (R = %.4f)\n",
              horizons_h.back(), argbest_long, best_long);
  std::printf("analytic R(t) inside the simulation 95%% CI: %zu/%zu cells "
              "(%zu trajectories, %.2f s)\n",
              inside, cells, des.mc_stats.replications,
              des.mc_stats.seconds);
  std::printf("csv written: ext_mission_reliability.csv\n");

  // --- Phased threat: the same R(t) question under the mission_phased
  // preset (quiet infiltration day, two-day λc×4 assault, open-ended
  // recovery), chained across the phase boundaries analytically.
  const auto phased = core::experiment_preset("mission_phased", smoke);
  const auto phased_grid_spec = phased.grid();
  const auto& phased_grid = phased.axes[0].values;
  std::printf("\nphased mission (%s): analytic R(t) across "
              "infiltration/assault/recovery boundaries\n",
              phased.name.c_str());
  util::Table phased_table(header);
  double p_best_long = -1.0, p_argbest_long = 0.0;
  for (std::size_t i = 0; i < phased_grid.size(); ++i) {
    const core::MissionAnalyzer analyzer(
        phased_grid_spec.point(phased.base, i));
    const auto r = analyzer.reliability_at(horizons_s);
    std::vector<std::string> row{util::Table::fix(phased_grid[i], 0)};
    for (std::size_t h = 0; h < r.size(); ++h) {
      row.push_back(util::Table::fix(r[h], 4));
      row.push_back("-");  // DES CIs for this preset live in bench_mission
    }
    phased_table.add_row(row);
    if (r.back() > p_best_long) {
      p_best_long = r.back();
      p_argbest_long = phased_grid[i];
    }
  }
  phased_table.print(std::cout);
  std::printf("phased best TIDS for the %.0f h mission: %.0f s (R = %.4f, "
              "constant-threat best was %.0f s)\n",
              horizons_h.back(), p_argbest_long, p_best_long, argbest_long);
  return 0;
}
