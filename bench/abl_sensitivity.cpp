// Ablation A4: parameter elasticities of MTTSF and Ĉtotal at the paper's
// default design point — which of the paper's Section 5 parameters
// actually govern the two metrics.  Complements the figure sweeps with
// local derivative information, then widens the two dominant knobs into
// the "sensitivity_surface" experiment preset (λc × TIDS via a generic
// numeric axis) — answered analytically AND validated per point by
// CI-bounded Monte-Carlo simulation from ONE ExperimentService run.
// `--smoke` thins the surface; exits non-zero on a validation
// regression.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/sensitivity.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Ablation A4: parameter elasticities at the default design point",
      "(dM/M)/(dp/p); negative MTTSF elasticity = parameter hurts "
      "survivability");

  core::Params p = core::Params::paper_defaults();
  p.t_ids = 120.0;

  const auto entries = core::sensitivity_analysis(p);

  util::Table table({"parameter", "base value", "MTTSF elasticity",
                     "Ctotal elasticity"});
  util::CsvWriter csv("abl_sensitivity.csv");
  csv.header({"parameter", "base", "mttsf_elasticity", "ctotal_elasticity"});
  for (const auto& e : entries) {
    table.add_row({e.parameter, util::Table::sci(e.base_value),
                   util::Table::fix(e.mttsf_elasticity, 3),
                   util::Table::fix(e.ctotal_elasticity, 3)});
    csv.row({e.parameter, util::CsvWriter::num(e.base_value),
             util::CsvWriter::num(e.mttsf_elasticity),
             util::CsvWriter::num(e.ctotal_elasticity)});
  }
  table.print(std::cout);
  std::printf("\ncsv written: abl_sensitivity.csv\n\n");

  // Response surface on the dominant knobs: λc (attacker pressure) ×
  // TIDS as a declarative spec with a generic numeric axis.  One
  // service run answers the surface analytically AND by simulation.
  const auto spec = core::experiment_preset("sensitivity_surface", smoke);
  const auto surface = spec.grid();
  core::ExperimentService service;
  const auto run = service.run(spec);
  const auto& evals = run.at(core::BackendKind::Analytic).evals;

  util::Table surf({"lambda_c", "TIDS(s)", "MTTSF(s)", "Ctotal"});
  util::CsvWriter surf_csv("abl_sensitivity_surface.csv");
  surf_csv.header({"lambda_c", "t_ids", "mttsf", "ctotal"});
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const auto c = surface.coords(i);
    surf.add_row({util::Table::sci(spec.axes[0].values[c[0]]),
                  util::Table::fix(spec.axes[1].values[c[1]], 0),
                  util::Table::sci(evals[i].mttsf),
                  util::Table::sci(evals[i].ctotal)});
    surf_csv.row({util::CsvWriter::num(spec.axes[0].values[c[0]]),
                  util::CsvWriter::num(spec.axes[1].values[c[1]]),
                  util::CsvWriter::num(evals[i].mttsf),
                  util::CsvWriter::num(evals[i].ctotal)});
  }
  surf.print(std::cout);
  std::printf("\ncsv written: abl_sensitivity_surface.csv\n\n");
  bench::print_engine_stats(service.sweep_engine());

  auto json = bench::artifact("abl_sensitivity", smoke,
                              surface.num_points());
  const bool ok = bench::report_validation(run, json);
  bench::write_artifact(json, "BENCH_abl_sensitivity.json");
  return ok ? 0 : 1;
}
