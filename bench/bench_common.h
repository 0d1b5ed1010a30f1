// Shared PRESENTATION helpers for the figure-reproduction benches.
// Everything that DEFINES an experiment (grids, backends, Monte-Carlo
// schedules, seeds) lives in core::experiment_preset — benches run
// their work through core::ExperimentService::run(spec) like every
// other consumer and only format the answers here: aligned tables, CSV
// files next to the binary, CI-gate summaries, and util::Json
// BENCH_*.json artifacts.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "core/sweep_engine.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace midas::bench {

inline void print_header(const std::string& title,
                         const std::string& paper_claim) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("paper result to reproduce: %s\n\n", paper_claim.c_str());
}

/// The one command-line option every bench takes: true for `--smoke`,
/// false for no argument.  Any other argument (a typo such as `--smok`
/// would otherwise run full scale and write a "full" artifact) prints
/// what is accepted and exits 2.
inline bool smoke_mode(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0) {
      std::fprintf(stderr, "%s: unknown argument '%s' (accepted: --smoke)\n",
                   argv[0], argv[i]);
      std::exit(2);
    }
    smoke = true;
  }
  return smoke;
}

/// A named MTTSF or Ctotal series over the TIDS grid.
struct Series {
  std::string label;
  core::SweepResult sweep;
};

enum class Metric { Mttsf, Ctotal };

inline double metric_of(const core::SweepPoint& pt, Metric m) {
  return m == Metric::Mttsf ? pt.eval.mttsf : pt.eval.ctotal;
}

/// Prints a grid × series table plus per-series optima, and writes CSV.
inline void report(const std::vector<double>& grid,
                   const std::vector<Series>& series, Metric metric,
                   const std::string& csv_path) {
  std::vector<std::string> header{"TIDS(s)"};
  for (const auto& s : series) header.push_back(s.label);
  util::Table table(header);

  util::CsvWriter csv(csv_path);
  std::vector<std::string> csv_row = header;
  csv.row(csv_row);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<std::string> row{util::Table::fix(grid[i], 0)};
    csv_row = {util::CsvWriter::num(grid[i])};
    for (const auto& s : series) {
      const double v = metric_of(s.sweep.points[i], metric);
      row.push_back(util::Table::sci(v));
      csv_row.push_back(util::CsvWriter::num(v));
    }
    table.add_row(row);
    csv.row(csv_row);
  }
  table.print(std::cout);

  std::printf("\noptimal TIDS per series (%s):\n",
              metric == Metric::Mttsf ? "max MTTSF" : "min Ctotal");
  for (const auto& s : series) {
    const auto& best = metric == Metric::Mttsf ? s.sweep.best_mttsf()
                                               : s.sweep.best_ctotal();
    std::printf("  %-24s TIDS* = %5.0f s   %s = %.3e\n", s.label.c_str(),
                best.t_ids,
                metric == Metric::Mttsf ? "MTTSF" : "Ctotal",
                metric_of(best, metric));
  }
  std::printf("\ncsv written: %s\n\n", csv_path.c_str());
}

/// Slices a 2-D analytic result (axis 0 = series, axis 1 = TIDS) into
/// the named Series rows report() takes, so the figure benches keep
/// their table format while running through the experiment service.
inline std::vector<Series> series_from_grid(
    const core::GridSpec& spec, std::span<const core::Evaluation> evals) {
  const auto& s_axis = spec.axis_at(0);
  const auto& t_axis = spec.axis_at(1);
  std::vector<Series> out;
  out.reserve(s_axis.size());
  for (std::size_t s = 0; s < s_axis.size(); ++s) {
    Series series;
    series.label = s_axis.name + "=" + s_axis.labels[s];
    series.sweep.points.reserve(t_axis.size());
    for (std::size_t t = 0; t < t_axis.size(); ++t) {
      const std::size_t coords[]{s, t};
      series.sweep.points.push_back(
          {t_axis.values[t], evals[spec.index(coords)]});
    }
    out.push_back(std::move(series));
  }
  return out;
}

/// CI-bounded validation report shared by the figure/ablation benches:
/// prints every grid point's analytic MTTSF against its simulation 95%
/// CI (the result's Analytic backend vs its Des backend), records the
/// outcome in `json`, and gates with every point converged and at most
/// max(1, 15% of points) outside their CIs — 95% intervals legitimately
/// miss ~5% of the time, so small smoke grids must tolerate one honest
/// miss and large grids several before a flip means a real regression
/// rather than Monte-Carlo noise.
inline bool report_validation(const core::ExperimentResult& result,
                              util::Json& json) {
  const auto grid = result.spec.grid();
  const auto& evals = result.at(core::BackendKind::Analytic).evals;
  const auto& sim_run = result.at(core::BackendKind::Des);

  util::Table table({"point", "MTTSF analytic", "MTTSF sim (95% CI)",
                     "reps", "inside CI"});
  bool converged_all = true;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < sim_run.mc.size(); ++i) {
    const auto& mc = sim_run.mc[i];
    converged_all = converged_all && mc.converged;
    if (mc.ttsf.contains(evals[i].mttsf)) ++inside;
    table.add_row({grid.label(result.range.begin + i),
                   util::Table::sci(evals[i].mttsf),
                   util::Table::sci(mc.ttsf.mean) + " ± " +
                       util::Table::sci(mc.ttsf.ci_half_width, 1),
                   std::to_string(mc.replications),
                   mc.ttsf.contains(evals[i].mttsf) ? "yes" : "NO"});
  }
  table.print(std::cout);

  const std::size_t n = sim_run.mc.size();
  const std::size_t allowed_misses = std::max<std::size_t>(1, n * 15 / 100);
  const bool ok = converged_all && inside + allowed_misses >= n;
  std::printf("\nanalytic inside simulation 95%% CI: %zu/%zu, converged %s "
              "(%zu trajectories in %.2f s)  -> %s\n\n",
              inside, n, converged_all ? "all" : "NOT ALL",
              sim_run.mc_stats.replications, sim_run.mc_stats.seconds,
              ok ? "ok" : "VALIDATION REGRESSION");
  json.set("validation_points", util::Json(static_cast<double>(n)));
  json.set("validation_inside_ci",
           util::Json(static_cast<double>(inside)));
  json.set("validation_replications",
           util::Json(static_cast<double>(sim_run.mc_stats.replications)));
  json.set("validation_seconds",
           util::Json::number(sim_run.mc_stats.seconds));
  json.set("validation_converged",
           util::Json(std::string(converged_all ? "yes" : "no")));
  return ok;
}

/// Starts a BENCH_*.json artifact with the standard identity fields,
/// including the host's core count and the worker count a default
/// service or engine (threads = 0) runs with, so timings from different
/// hosts are comparable.
inline util::Json artifact(const std::string& bench, bool smoke,
                           std::size_t grid_points) {
  const auto nproc = static_cast<double>(
      std::max(std::thread::hardware_concurrency(), 1u));
  auto json = util::Json::object();
  json.set("bench", util::Json(bench));
  json.set("mode", util::Json(std::string(smoke ? "smoke" : "full")));
  json.set("grid_points", util::Json(static_cast<double>(grid_points)));
  json.set("nproc", util::Json(nproc));
  json.set("threads", util::Json(nproc));
  return json;
}

inline void write_artifact(const util::Json& json, const std::string& path) {
  util::write_json_file(path, json);
  std::printf("json written: %s\n", path.c_str());
}

/// Wall-clock + throughput line for the analytic engine behind a
/// service: how many points were evaluated, how many explorations they
/// cost, and the states/s and points/s the run achieved.
inline void print_engine_stats(const core::SweepEngine& engine) {
  const auto& st = engine.stats();
  if (st.seconds <= 0.0 || st.points == 0) return;
  std::printf(
      "sweep engine: %zu points / %zu exploration(s), %zu states "
      "evaluated in %.3f s  (%.3e states/s, %.1f points/s)\n\n",
      st.points, st.explorations, st.states_evaluated, st.seconds,
      static_cast<double>(st.states_evaluated) / st.seconds,
      static_cast<double>(st.points) / st.seconds);
}

}  // namespace midas::bench
