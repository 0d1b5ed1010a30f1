// Ablation A1: the paper's adaptive-defense thesis — "the system could
// adjust the IDS detection strength in response to the attacker strength
// detected at runtime" — evaluated as a full 3×3 matrix: for each
// attacker function, which detection function yields the highest MTTSF
// at its own optimal TIDS?  The whole matrix is the "attacker_matrix"
// experiment preset (attacker × detection × TIDS) answered through
// core::ExperimentService on a single explored structure, and the
// "attacker_matrix_val" preset validates a thinned slice of the same
// grid per point by CI-bounded Monte-Carlo simulation (CRN + antithetic
// pairs).  `--smoke` thins the validation grid; exits non-zero on a
// validation regression.
//
// Uses the CampaignProgress attacker metric (DESIGN.md): the paper's
// printed ratio (Tm+UCm)/Tm is confined to [1, 1.5] by the C2 failure
// boundary, which suppresses exactly the attacker-shape differences
// this ablation studies; the prose reading ("rate ∝ number of
// compromised nodes in the system") escalates over the whole campaign.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Ablation A1: attacker function x detection function matrix",
      "best detection strength tracks attacker strength (diagonal "
      "dominance of the matched pairs)");

  core::ExperimentService service;

  const auto matrix_spec = core::experiment_preset("attacker_matrix", smoke);
  const auto matrix_grid = matrix_spec.grid();
  const auto& grid = matrix_spec.axes.back().values;
  const auto run = service.run(matrix_spec);
  const auto& evals = run.at(core::BackendKind::Analytic).evals;
  const auto eval_at = [&](std::span<const std::size_t> coords) {
    return evals[matrix_grid.index(coords)];
  };
  const auto shape_names = matrix_spec.axes[0].levels;

  util::Table table({"attacker \\ detection", "logarithmic", "linear",
                     "polynomial", "best detection"});
  util::CsvWriter csv("abl_attacker_matrix.csv");
  csv.header({"attacker", "detection", "optimal_t_ids", "mttsf", "ctotal"});

  for (std::size_t a = 0; a < shape_names.size(); ++a) {
    std::vector<std::string> row{shape_names[a]};
    double best = -1.0;
    std::string best_name;
    for (std::size_t d = 0; d < shape_names.size(); ++d) {
      // Optimal TIDS along the grid's innermost axis.
      std::size_t opt = 0;
      for (std::size_t t = 0; t < grid.size(); ++t) {
        const std::size_t coords[]{a, d, t};
        const std::size_t opt_coords[]{a, d, opt};
        if (eval_at(coords).mttsf > eval_at(opt_coords).mttsf) opt = t;
      }
      const std::size_t coords[]{a, d, opt};
      const auto ev = eval_at(coords);
      row.push_back(util::Table::sci(ev.mttsf) + " @" +
                    util::Table::fix(grid[opt], 0) + "s");
      csv.row({shape_names[a], shape_names[d],
               util::CsvWriter::num(grid[opt]),
               util::CsvWriter::num(ev.mttsf),
               util::CsvWriter::num(ev.ctotal)});
      if (ev.mttsf > best) {
        best = ev.mttsf;
        best_name = shape_names[d];
      }
    }
    row.push_back(best_name);
    table.add_row(row);
  }
  table.print(std::cout);
  std::printf("\ncsv written: abl_attacker_matrix.csv\n\n");
  bench::print_engine_stats(service.sweep_engine());

  // CI-bounded validation of the matrix: every (attacker × detection)
  // cell simulated at a TIDS slice, one CRN/antithetic schedule.
  const auto val =
      service.run(core::experiment_preset("attacker_matrix_val", smoke));
  auto json = bench::artifact("abl_attacker_matrix", smoke,
                              matrix_grid.num_points());
  const bool ok = bench::report_validation(val, json);
  bench::write_artifact(json, "BENCH_abl_attacker_matrix.json");
  return ok ? 0 : 1;
}
