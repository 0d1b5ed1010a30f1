// Scenario-model bench: runs every pluggable detector and attacker
// model through the experiment service — one spec per scenario, so
// each gets its own wall clock — and gates on
//   * every Monte-Carlo point converged at the preset CI target, and
//   * for the analytic-compatible scenarios (entropy/static detectors,
//     poisson attacker), the analytic SPN answer inside the DES 95%
//     CI at (almost) every point — the DES-vs-analytic agreement the
//     paper's validation methodology demands, now per scenario.
// Time-dependent models (cusum, logistic) and non-Poisson arrival
// structures (bursty, coordinated) have no analytic twin — their
// entries record wall clock + convergence only, which is exactly the
// routing the spec validator enforces.
//
// A single-thread probe then times GroupSimulator::step per detector
// model at the detector_matrix base and gates each model's ns/event
// against static's, measured in the same process: cusum <= 2x (its
// rates come from two voting tables), entropy and logistic <= 5x (they
// evaluate Equation 1 per event).  A ratio, not an absolute time, so
// the gate holds on any host.
//
// Writes BENCH_scenarios.json.  `--smoke` thins the TIDS axis for CI.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/des.h"
#include "sim/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace midas;

/// Events timed per detector per pass, and passes; the best pass
/// counts, and passes interleave the detectors, so a slow spell of the
/// host does not land on one model alone.
constexpr std::size_t kProbeEvents = 200000;
constexpr int kProbePasses = 5;

/// Single-thread ns per GroupSimulator::step for each point, over whole
/// trajectories (seeds 0, 1, ... of the preset's base seed) until at
/// least kProbeEvents events have run.
std::vector<double> ns_per_event(const std::vector<core::Params>& points,
                                 std::uint64_t base_seed) {
  std::vector<sim::DesContext> contexts(points.begin(), points.end());
  std::vector<double> best(points.size(),
                           std::numeric_limits<double>::infinity());
  for (int pass = 0; pass < kProbePasses; ++pass) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t events = 0;
      const util::Stopwatch watch;
      for (std::uint64_t rep = 0; events < kProbeEvents; ++rep) {
        sim::UniformStream draw(sim::derive_seed(base_seed, rep));
        sim::GroupSimulator simulator(points[i], contexts[i]);
        do {
          ++events;
        } while (simulator.step(draw) == sim::GroupSimulator::Status::Running);
      }
      best[i] = std::min(best[i], 1e9 * watch.seconds() /
                                      static_cast<double>(events));
    }
  }
  return best;
}

/// The preset's model axis narrowed to ONE level: everything else
/// (TIDS axis, MC schedule, backends) stays the preset's, so a
/// scenario entry is the preset grid's row for that model.
core::ExperimentSpec scenario_spec(const std::string& preset, bool smoke,
                                   const std::string& level,
                                   bool analytic_twin) {
  core::ExperimentSpec spec = core::experiment_preset(preset, smoke);
  spec.axes[0].levels = {level};
  if (analytic_twin) {
    spec.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "scenario models: pluggable detectors & attackers",
      "per-scenario MTTSF curves; DES inside analytic 95% CI where the "
      "SPN applies (static/entropy + poisson)");

  struct Scenario {
    const char* preset;
    const char* level;
    bool analytic_twin;  // time-homogeneous → SPN cross-check applies
  };
  const std::vector<Scenario> scenarios = {
      {"detector_matrix", "static", true},
      {"detector_matrix", "entropy", true},
      {"detector_matrix", "cusum", false},
      {"detector_matrix", "logistic", false},
      {"attacker_matrix_v2", "poisson", true},
      {"attacker_matrix_v2", "bursty", false},
      {"attacker_matrix_v2", "coordinated", false},
  };

  core::ExperimentService service;  // shared: exploration cache reuse
  auto json = bench::artifact("scenarios", smoke, scenarios.size());
  auto entries = util::Json::array();
  bool ok = true;

  for (const auto& sc : scenarios) {
    const auto spec =
        scenario_spec(sc.preset, smoke, sc.level, sc.analytic_twin);
    std::printf("--- %s / %s (%s)\n", sc.preset, sc.level,
                sc.analytic_twin ? "DES + analytic cross-check"
                                 : "DES only — outside the analytic SPN");
    const util::Stopwatch watch;
    const auto result = service.run(spec);
    const double seconds = watch.seconds();

    const auto& des = result.at(core::BackendKind::Des);
    bool converged = true;
    for (const auto& pt : des.mc) converged = converged && pt.converged;

    auto entry = util::Json::object();
    entry.set("preset", util::Json(std::string(sc.preset)));
    entry.set("scenario", util::Json(std::string(sc.level)));
    entry.set("seconds", util::Json::number(seconds));
    entry.set("points", util::Json(static_cast<double>(des.mc.size())));
    entry.set("replications",
              util::Json(static_cast<double>(des.mc_stats.replications)));
    entry.set("converged", util::Json(std::string(converged ? "yes" : "no")));

    if (sc.analytic_twin) {
      const bool agrees = bench::report_validation(result, entry);
      ok = ok && agrees;
    } else {
      const auto grid = spec.grid();
      util::Table table({"point", "TTSF sim (95% CI)", "reps"});
      for (std::size_t i = 0; i < des.mc.size(); ++i) {
        table.add_row({grid.label(result.range.begin + i),
                       util::Table::sci(des.mc[i].ttsf.mean) + " ± " +
                           util::Table::sci(des.mc[i].ttsf.ci_half_width, 1),
                       std::to_string(des.mc[i].replications)});
      }
      table.print(std::cout);
    }
    std::printf("scenario wall clock: %.2f s, %zu trajectories, "
                "converged %s\n\n",
                seconds, des.mc_stats.replications,
                converged ? "all" : "NOT ALL");
    ok = ok && converged;
    entries.push_back(std::move(entry));
  }

  // --- Per-event cost of each detector model, relative to static.
  const auto matrix = core::experiment_preset("detector_matrix", true);
  const auto grid = matrix.grid();
  const auto& levels = matrix.axes[0].levels;
  std::vector<core::Params> probe_points;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    probe_points.push_back(grid.point(matrix.base, i));
  }
  const auto ns = ns_per_event(probe_points, matrix.mc.base_seed);
  auto per_event = util::Json::array();
  util::Table probe_table({"detector", "ns/event", "x static", "ceiling"});
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto kind = probe_points[i].detector.kind;
    const double ratio = ns[i] / ns[0];  // the preset lists static first
    const double ceiling = kind == ids::DetectorKind::Cusum    ? 2.0
                           : kind == ids::DetectorKind::Static ? 1.0
                                                               : 5.0;
    const bool pass = ratio <= ceiling;
    ok = ok && pass;
    auto entry = util::Json::object();
    entry.set("detector", util::Json(std::string(ids::to_string(kind))));
    entry.set("ns_per_event", util::Json::number(ns[i]));
    entry.set("ratio_to_static", util::Json::number(ratio));
    entry.set("ceiling", util::Json::number(ceiling));
    entry.set("margin", util::Json::number(ceiling - ratio));
    entry.set("gate", util::Json(std::string(pass ? "ok" : "FAIL")));
    per_event.push_back(std::move(entry));
    probe_table.add_row({ids::to_string(kind), util::Table::sci(ns[i]),
                         util::Table::sci(ratio),
                         util::Table::sci(ceiling, 1)});
  }
  std::printf("--- per-event cost, one thread (best of %d passes of "
              "%zu events)\n",
              kProbePasses, kProbeEvents);
  probe_table.print(std::cout);

  // The scenario runs use the service default (artifact()'s "threads");
  // the per-event probe runs on one thread.
  json.set("probe_threads", util::Json(1.0));
  json.set("per_event", std::move(per_event));
  json.set("scenarios", std::move(entries));
  json.set("gate", util::Json(std::string(ok ? "ok" : "FAIL")));
  bench::write_artifact(json, "BENCH_scenarios.json");
  std::printf("\nscenario gate: %s\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
