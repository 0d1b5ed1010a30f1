// Per-kernel benchmark of the batched analytic solver: the scalar
// per-point AbsorbingAnalyzer::solve against solve_batch with factor
// reuse off and on, at three SCC-block profiles of the GCS model —
//   singleton      max_groups=1: every transient SCC is a single state
//                  (pure point-major singleton kernels),
//   dense          max_groups=3: partition/merge cycles give multi-state
//                  SCCs, factored per point,
//   dense-shared   max_groups=3 with identical batch points: every
//                  normalised block coincides, so factor reuse serves
//                  the whole batch from one LU per block.
// Parity is gated inline (reuse off bitwise, reuse on <= 1e-12) and the
// batched path must beat the scalar path by MIN_SPEEDUP on every
// profile; results land in BENCH_solver.json for PR-on-PR tracking.
// Standalone (no Google Benchmark) so CI always builds and gates it.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/gcs_spn_model.h"
#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "util/arena.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace midas;

constexpr std::size_t kBatch = 8;
// Kernel-level floor: the batched solve must beat the scalar solve by
// at least this factor on every profile (end-to-end gating lives in
// bench_sweep).  Conservative so a noisy CI box does not flap.
constexpr double kMinSpeedup = 1.2;

double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

struct Profile {
  std::string name;
  int n_init = 0;
  int max_groups = 1;
  bool identical_points = false;  // rate-identical batch: reuse shines
};

struct ProfileResult {
  std::string name;
  std::size_t states = 0;
  std::size_t solver_blocks = 0;
  std::size_t blocks_reused = 0;
  double scalar_ns_per_point = 0.0;
  double batch_ns_per_point = 0.0;  // factor reuse off
  double reuse_ns_per_point = 0.0;  // factor reuse on
  bool parity_ok = false;
};

ProfileResult run_profile(const Profile& prof, std::size_t reps) {
  core::Params base = core::Params::paper_defaults();
  base.n_init = prof.n_init;
  base.max_groups = prof.max_groups;

  std::deque<core::GcsSpnModel> models;
  std::vector<const core::GcsSpnModel*> model_ptrs;
  std::vector<const spn::PetriNet*> nets;
  for (std::size_t p = 0; p < kBatch; ++p) {
    core::Params pt = base;
    if (!prof.identical_points) {
      pt.t_ids = 30.0 + 30.0 * static_cast<double>(p);
    }
    models.emplace_back(pt);
    model_ptrs.push_back(&models.back());
    nets.push_back(&models.back().net());
  }

  const auto graph = spn::explore(models.front().net());
  const spn::AbsorbingAnalyzer analyzer(graph);
  const std::size_t E = graph.edges.size();
  std::vector<double> rates(E * kBatch);
  std::vector<double> impulses(E * kBatch);
  graph.compute_rates_batch(nets, rates, impulses);

  std::vector<std::vector<double>> cols(kBatch, std::vector<double>(E));
  for (std::size_t p = 0; p < kBatch; ++p) {
    for (std::size_t i = 0; i < E; ++i) cols[p][i] = rates[i * kBatch + p];
  }

  ProfileResult out;
  out.name = prof.name;
  out.states = graph.num_states();

  // Parity gates before timing: reuse OFF bitwise-scalar, reuse ON
  // within 1e-12.
  util::Arena arena;
  const auto off = analyzer.solve_batch(rates, kBatch,
                                        spn::BatchSolveOptions{false}, &arena);
  util::Arena arena_on;
  const auto on = analyzer.solve_batch(rates, kBatch,
                                       spn::BatchSolveOptions{true}, &arena_on);
  out.solver_blocks = off.solver_blocks;
  out.blocks_reused = on.blocks_reused;
  out.parity_ok = true;
  for (std::size_t p = 0; p < kBatch; ++p) {
    const auto ref = analyzer.solve(cols[p]);
    if (std::bit_cast<std::uint64_t>(off.mtta[p]) !=
        std::bit_cast<std::uint64_t>(ref.mtta)) {
      std::printf("PARITY: %s point %zu reuse-off mtta %.17g != scalar "
                  "%.17g\n",
                  prof.name.c_str(), p, off.mtta[p], ref.mtta);
      out.parity_ok = false;
    }
    if (rel_diff(on.mtta[p], ref.mtta) > 1e-12) {
      std::printf("PARITY: %s point %zu reuse-on mtta rel diff %.3e\n",
                  prof.name.c_str(), p, rel_diff(on.mtta[p], ref.mtta));
      out.parity_ok = false;
    }
  }

  // Each mode is timed over several windows and keeps its fastest one
  // (min-of-windows rejects scheduler noise, which otherwise flaps the
  // gate on the smallest profile where a point solve is microseconds).
  constexpr std::size_t kWindows = 3;
  double sink = 0.0;
  const auto time_min = [&](auto&& body) {
    double best = 0.0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const util::Stopwatch watch;
      for (std::size_t r = 0; r < reps; ++r) body();
      const double ns =
          watch.seconds() * 1e9 / static_cast<double>(reps * kBatch);
      best = w == 0 ? ns : std::min(best, ns);
    }
    return best;
  };
  out.scalar_ns_per_point = time_min([&] {
    for (std::size_t p = 0; p < kBatch; ++p) {
      sink += analyzer.solve(cols[p]).mtta;
    }
  });
  out.batch_ns_per_point = time_min([&] {
    arena.reset();
    sink += analyzer
                .solve_batch(rates, kBatch, spn::BatchSolveOptions{false},
                             &arena)
                .mtta[0];
  });
  out.reuse_ns_per_point = time_min([&] {
    arena.reset();
    sink += analyzer
                .solve_batch(rates, kBatch, spn::BatchSolveOptions{true},
                             &arena)
                .mtta[0];
  });
  if (sink == 42.0) std::printf("%f\n", sink);  // keep the loops live
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);

  bench::print_header(
      "Batched absorbing solver: scalar vs point-major batch kernels",
      "batched multi-point solve >= " + std::to_string(kMinSpeedup) +
          "x over per-point solves at every SCC-block profile; reuse off "
          "bitwise, reuse on <= 1e-12");

  const int n = smoke ? 20 : 40;
  const std::size_t reps = smoke ? 10 : 40;
  const std::vector<Profile> profiles{
      {"singleton", n, 1, false},
      {"dense", n, 3, false},
      {"dense-shared", n, 3, true},
  };

  util::Table table({"profile", "states", "blocks", "scalar ns/pt",
                     "batch ns/pt", "reuse ns/pt", "batch x", "reuse x",
                     "reused"});
  auto json = bench::artifact("micro_solver", smoke, kBatch);
  auto rows = util::Json::array();

  bool ok = true;
  for (const auto& prof : profiles) {
    const auto r = run_profile(prof, reps);
    const double batch_speedup = r.scalar_ns_per_point / r.batch_ns_per_point;
    const double reuse_speedup = r.scalar_ns_per_point / r.reuse_ns_per_point;
    table.add_row({r.name, std::to_string(r.states),
                   std::to_string(r.solver_blocks),
                   util::Table::fix(r.scalar_ns_per_point, 0),
                   util::Table::fix(r.batch_ns_per_point, 0),
                   util::Table::fix(r.reuse_ns_per_point, 0),
                   util::Table::fix(batch_speedup, 2),
                   util::Table::fix(reuse_speedup, 2),
                   std::to_string(r.blocks_reused)});

    auto row = util::Json::object();
    row.set("profile", util::Json(r.name));
    row.set("states", util::Json(static_cast<double>(r.states)));
    row.set("solver_blocks",
            util::Json(static_cast<double>(r.solver_blocks)));
    row.set("blocks_reused",
            util::Json(static_cast<double>(r.blocks_reused)));
    row.set("scalar_ns_per_point", util::Json::number(r.scalar_ns_per_point));
    row.set("batch_ns_per_point", util::Json::number(r.batch_ns_per_point));
    row.set("reuse_ns_per_point", util::Json::number(r.reuse_ns_per_point));
    row.set("batch_speedup", util::Json::number(batch_speedup));
    row.set("reuse_speedup", util::Json::number(reuse_speedup));
    rows.push_back(std::move(row));

    if (!r.parity_ok) {
      std::printf("FAIL: %s parity regression\n", prof.name.c_str());
      ok = false;
    }
    if (batch_speedup < kMinSpeedup || reuse_speedup < kMinSpeedup) {
      std::printf("FAIL: %s below the %.1fx kernel speedup floor "
                  "(batch %.2fx, reuse %.2fx)\n",
                  prof.name.c_str(), kMinSpeedup, batch_speedup,
                  reuse_speedup);
      ok = false;
    }
    if (prof.identical_points && r.blocks_reused == 0) {
      std::printf("FAIL: %s: factor reuse found no shared blocks\n",
                  prof.name.c_str());
      ok = false;
    }
  }
  table.print(std::cout);

  json.set("batch_width", util::Json(static_cast<double>(kBatch)));
  json.set("min_speedup", util::Json::number(kMinSpeedup));
  json.set("profiles", std::move(rows));
  std::printf("\nkernel gate: batched >= %.1fx scalar on every profile "
              "-> %s\n\n",
              kMinSpeedup, ok ? "ok" : "FAIL");
  bench::write_artifact(json, "BENCH_solver.json");
  return ok ? 0 : 1;
}
