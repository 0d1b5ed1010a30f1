// Validation V2: the packet-level protocol simulation vs the analytic
// SPN model.  Unlike val_des_vs_spn (which replays the model's own
// stochastic process and must match exactly), this compares AGAINST THE
// MODELLING ASSUMPTIONS: deterministic IDS rounds instead of exponential
// ones, BFS hop counts over a live random-waypoint topology instead of a
// fixed mean, per-message traffic accounting instead of rate rewards.
// Expect order-of-magnitude agreement and matching trends, not equality.
//
// The whole comparison is the "val_protocol" experiment preset: ONE
// ExperimentService run answers the TIDS grid with the Analytic and
// ProtocolSim backends — the replication schedule, streaming summaries
// and the key-agreement safety invariant all ride the same
// MonteCarloEngine the DES grids use.
#include <cstdio>
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace midas;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Validation V2: protocol-level simulation vs analytic model",
      "same order of magnitude for TTSF and traffic; same TIDS trend");

  const auto spec = core::experiment_preset("val_protocol", smoke);
  core::ExperimentService service;
  const auto result = service.run(spec);
  const auto& analytic = result.at(core::BackendKind::Analytic).evals;
  const auto& protocol = result.at(core::BackendKind::ProtocolSim);

  util::Table table({"TIDS(s)", "MTTSF analytic", "TTSF protocol (95% CI)",
                     "ratio", "Ctotal analytic", "traffic protocol",
                     "keys ok"});
  util::CsvWriter csv("val_protocol_sim.csv");
  csv.header({"t_ids", "mttsf_analytic", "ttsf_sim", "ttsf_ci",
              "ctotal_analytic", "traffic_sim"});

  const auto& t_ids = spec.axes[0].values;
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    const auto& r = protocol.mc[i];
    table.add_row(
        {util::Table::fix(t_ids[i], 0), util::Table::sci(analytic[i].mttsf),
         util::Table::sci(r.ttsf.mean) + " ± " +
             util::Table::sci(r.ttsf.ci_half_width, 1),
         util::Table::fix(r.ttsf.mean / analytic[i].mttsf, 2),
         util::Table::sci(analytic[i].ctotal),
         util::Table::sci(r.cost_rate.mean),
         r.keys_always_agreed ? "yes" : "NO"});
    csv.row({util::CsvWriter::num(t_ids[i]),
             util::CsvWriter::num(analytic[i].mttsf),
             util::CsvWriter::num(r.ttsf.mean),
             util::CsvWriter::num(r.ttsf.ci_half_width),
             util::CsvWriter::num(analytic[i].ctotal),
             util::CsvWriter::num(r.cost_rate.mean)});
  }
  table.print(std::cout);
  std::printf("\nratio = protocol TTSF / analytic MTTSF.  Deviations from "
              "1.0 quantify the paper's exponential-IDS-interval and\n"
              "fixed-hop-count assumptions; the TIDS ordering must match.\n");
  std::printf("mc engine: %zu protocol trajectories in %zu blocks / %zu "
              "rounds, %.1f s\n",
              protocol.mc_stats.replications, protocol.mc_stats.blocks,
              protocol.mc_stats.rounds, protocol.mc_stats.seconds);
  std::printf("csv written: val_protocol_sim.csv\n");
  return 0;
}
