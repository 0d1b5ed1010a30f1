// One-shot driver of the declarative experiment API: executes a JSON
// ExperimentSpec end-to-end through core::ExperimentService and writes
// the unified result file.  It is also the multi-process path: k
// processes each answer one shard of the same spec and a merge step
// recombines their result files, with no coordination beyond agreeing
// on the spec.
//
//   run_experiment --spec fig2.json --out result.json
//   run_experiment --preset fig2_val --smoke 1 --spec-out fig2.json
//   run_experiment --spec fig2.json --shard 0/2 --out s0.json &
//   run_experiment --spec fig2.json --shard 1/2 --out s1.json &
//   run_experiment --merge s0.json,s1.json --out merged.json
//
// The merged result equals the single-process run exactly (analytic
// bitwise; MC summaries bitwise because CRN substreams are keyed by
// replication only and non-CRN streams by global point index).
// --policy by_pilot_cost balances predicted Monte-Carlo work instead of
// point counts (see ShardPlan::by_pilot_cost); every process derives
// the identical plan from the same deterministic pilot.
//
// CI gates ride along:
//   --round-trip-check 1   re-serialise the parsed spec and fail unless
//                          it reproduces the input file byte-for-byte
//                          (the wire format must be canonical);
//   --parity-check 1       re-answer the spec along independent paths
//                          and fail on any divergence: the scalar
//                          batch=1 analytic solve, a rerun of the
//                          re-parsed spec, an identity-schedule rerun
//                          (a constant schedule must BE the constant
//                          model), a vr-stripped rerun (vr must leave
//                          the plain DES payload bitwise), and the
//                          protocol sim driven by MonteCarloEngine
//                          directly.  With --merge, rerun the merged
//                          spec in one process and byte-compare the
//                          canonical backend payloads.
// The payloads themselves are pinned by the byte goldens in
// tests/golden_scenarios.h.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "core/sweep_engine.h"
#include "sim/protocol_sim.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace midas;

double rel_diff(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

/// Largest relative difference over every metric the paper reports.
double eval_rel_diff(const core::Evaluation& a, const core::Evaluation& b) {
  double d = std::max(rel_diff(a.mttsf, b.mttsf),
                      rel_diff(a.ctotal, b.ctotal));
  d = std::max(d, rel_diff(a.cost_rates.group_comm, b.cost_rates.group_comm));
  d = std::max(d, rel_diff(a.cost_rates.status, b.cost_rates.status));
  d = std::max(d, rel_diff(a.cost_rates.rekey, b.cost_rates.rekey));
  d = std::max(d, rel_diff(a.cost_rates.ids, b.cost_rates.ids));
  d = std::max(d, rel_diff(a.cost_rates.beacon, b.cost_rates.beacon));
  d = std::max(d, rel_diff(a.cost_rates.partition_merge,
                           b.cost_rates.partition_merge));
  d = std::max(d, rel_diff(a.eviction_cost_rate, b.eviction_cost_rate));
  d = std::max(d, rel_diff(a.p_failure_c1, b.p_failure_c1));
  d = std::max(d, rel_diff(a.p_failure_c2, b.p_failure_c2));
  return d;
}

bool welford_bitwise_equal(const sim::WelfordState& a,
                           const sim::WelfordState& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2;
}

/// Bitwise equality of everything a Monte-Carlo point serialises.
bool mc_bitwise_equal(const sim::McPointResult& a,
                      const sim::McPointResult& b) {
  return welford_bitwise_equal(a.ttsf_state, b.ttsf_state) &&
         welford_bitwise_equal(a.cost_rate_state, b.cost_rate_state) &&
         a.replications == b.replications &&
         a.failures_c1 == b.failures_c1 && a.converged == b.converged &&
         a.survival_counts == b.survival_counts &&
         a.timeouts == b.timeouts &&
         a.keys_always_agreed == b.keys_always_agreed;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("run_experiment: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Per-point report table honouring the spec's requested metrics.
void print_points(const core::ExperimentSpec& spec,
                  const core::GridSpec& grid,
                  const core::ExperimentResult& result) {
  const auto wants_metric = [&](const char* m) {
    return spec.metrics.empty() ||
           std::find(spec.metrics.begin(), spec.metrics.end(), m) !=
               spec.metrics.end();
  };
  const auto* analytic = result.find(core::BackendKind::Analytic);
  const auto* sim_run = result.find(core::BackendKind::Des);
  if (sim_run == nullptr) {
    sim_run = result.find(core::BackendKind::ProtocolSim);
  }

  std::vector<std::string> header{"point"};
  if (analytic != nullptr && wants_metric("mttsf")) header.push_back("MTTSF");
  if (analytic != nullptr && wants_metric("ctotal")) {
    header.push_back("Ctotal");
  }
  if (sim_run != nullptr && wants_metric("mttsf")) {
    header.push_back("TTSF sim (95% CI)");
    header.push_back("reps");
  }
  util::Table table(header);
  for (std::size_t i = 0; i < result.range.size(); ++i) {
    std::vector<std::string> row{grid.label(result.range.begin + i)};
    if (analytic != nullptr && wants_metric("mttsf")) {
      row.push_back(util::Table::sci(analytic->evals[i].mttsf));
    }
    if (analytic != nullptr && wants_metric("ctotal")) {
      row.push_back(util::Table::sci(analytic->evals[i].ctotal));
    }
    if (sim_run != nullptr && wants_metric("mttsf")) {
      row.push_back(util::Table::sci(sim_run->mc[i].ttsf.mean) + " ± " +
                    util::Table::sci(sim_run->mc[i].ttsf.ci_half_width, 1));
      row.push_back(std::to_string(sim_run->mc[i].replications));
    }
    table.add_row(row);
  }
  table.print(std::cout);
}

/// Re-answers the spec along independent paths and gates equality.
bool parity_check(const core::ExperimentSpec& spec,
                  const core::GridSpec& grid,
                  const core::ExperimentResult& result, double tolerance) {
  bool ok = true;
  if (const auto* run = result.find(core::BackendKind::Analytic)) {
    if (spec.base.time_varying()) {
      std::printf("parity analytic (scalar batch=1 path):     skipped — "
                  "the spec is time-varying\n");
    } else {
      // The service ran the batched kernels; gate them against the
      // scalar per-point path (batch width 1).
      std::vector<core::Params> pts;
      pts.reserve(run->evals.size());
      for (std::size_t i = result.range.begin; i < result.range.end; ++i) {
        pts.push_back(grid.point(spec.base, i));
      }
      core::SweepEngine engine;
      const auto scalar = engine.evaluate(pts, 1);
      double max_scalar = 0.0;
      for (std::size_t i = 0; i < run->evals.size(); ++i) {
        max_scalar =
            std::max(max_scalar, eval_rel_diff(run->evals[i], scalar[i]));
      }
      std::printf("parity analytic (scalar batch=1 path):     max rel diff "
                  "%.3e (tolerance %.0e) -> %s\n",
                  max_scalar, tolerance,
                  max_scalar <= tolerance ? "ok" : "FAIL");
      ok = ok && max_scalar <= tolerance;
    }
  }
  {
    // Plugin-path parity: the detector/attacker model descriptors must
    // survive the wire unchanged.  Round-trip the spec through its JSON
    // form, answer the re-parsed spec with a FRESH service (no shared
    // caches), and byte-compare the canonical result forms — any codec
    // drift in a model field would change the answer and fail here.
    const auto reparsed =
        core::ExperimentSpec::from_json(util::Json::parse(spec.to_json().dump()));
    core::ExperimentService fresh;
    const auto rerun = fresh.run(reparsed);
    const bool same = rerun.canonical_json().dump() ==
                      result.canonical_json().dump();
    std::printf("parity plugin path (re-parsed spec rerun): canonical %s "
                "-> %s\n",
                same ? "bytes equal" : "BYTES DIFFER", same ? "ok" : "FAIL");
    ok = ok && same;
  }
  if (!spec.base.time_varying()) {
    // Constant-schedule parity: an identity one-segment schedule is the
    // SAME model (×1.0 is IEEE-exact, one timeline segment resolves),
    // so attaching it must leave every backend payload byte-identical.
    // The vr block is stripped from both sides first — cv validation
    // (correctly) refuses schedules, and vr-neutrality has its own gate
    // below.
    core::ExperimentSpec scheduled = spec;
    core::ScheduleSegment seg;  // identity multipliers, runs forever
    seg.name = "constant";
    scheduled.base.schedule.segments = {seg};
    scheduled.vr = vr::VrOptions{};
    core::ExperimentResult reference = result;
    for (auto& run : reference.backends) run.vr.clear();
    core::ExperimentService fresh;
    const auto rerun = fresh.run(scheduled);
    const bool same =
        rerun.canonical_json().at("backends").dump() ==
        reference.canonical_json().at("backends").dump();
    std::printf("parity constant schedule (identity rerun): backends %s "
                "-> %s\n",
                same ? "bytes equal" : "BYTES DIFFER", same ? "ok" : "FAIL");
    ok = ok && same;
  } else {
    std::printf("parity constant schedule:                  skipped — the "
                "spec is already time-varying\n");
  }
  if (spec.vr.any()) {
    // VR-neutrality parity: the vr estimators ride ALONGSIDE the plain
    // replication pass in their own tagged seed domains, so stripping
    // spec.mc.vr and re-answering must reproduce the DES mc payload
    // bitwise — enabling variance reduction can never change the plain
    // estimates it is compared against.
    core::ExperimentSpec plain = spec;
    plain.vr = vr::VrOptions{};
    core::ExperimentService fresh;
    const auto rerun = fresh.run(plain);
    const auto* with_vr = result.find(core::BackendKind::Des);
    const auto* without = rerun.find(core::BackendKind::Des);
    bool same = with_vr != nullptr && without != nullptr &&
                with_vr->mc.size() == without->mc.size() &&
                !with_vr->vr.empty() && without->vr.empty();
    if (same) {
      for (std::size_t i = 0; i < with_vr->mc.size(); ++i) {
        if (!mc_bitwise_equal(with_vr->mc[i], without->mc[i])) {
          same = false;
          break;
        }
      }
    }
    std::printf("parity vr-neutral (spec.mc.vr stripped):   DES mc payload "
                "%s -> %s\n",
                same ? "bitwise equal" : "DIFFERS", same ? "ok" : "FAIL");
    ok = ok && same;
  }
  if (const auto* run = result.find(core::BackendKind::ProtocolSim)) {
    std::vector<sim::ProtocolSimParams> points;
    for (std::size_t i = result.range.begin; i < result.range.end; ++i) {
      sim::ProtocolSimParams q;
      q.model = grid.point(spec.base, i);
      q.mobility = spec.protocol.mobility;
      q.radio_range_m = spec.protocol.radio_range_m;
      q.tick_s = spec.protocol.tick_s;
      q.topology_refresh_s = spec.protocol.topology_refresh_s;
      q.max_time_s = spec.protocol.max_time_s;
      points.push_back(std::move(q));
    }
    sim::McOptions mc = spec.mc;
    mc.point_stream_offset += result.range.begin;
    sim::MonteCarloEngine direct(mc);
    const auto direct_mc = direct.run_protocol(points);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < run->mc.size(); ++i) {
      if (!mc_bitwise_equal(run->mc[i], direct_mc[i])) ++mismatches;
    }
    std::printf("parity protocol (MonteCarloEngine):        %zu/%zu points "
                "bitwise -> %s\n",
                run->mc.size() - mismatches, run->mc.size(),
                mismatches == 0 ? "ok" : "FAIL");
    ok = ok && mismatches == 0;
  }
  return ok;
}

/// Parses --shard "i/n" into spec.shard with the --policy split.
void select_shard(core::ExperimentSpec& spec, const std::string& shard,
                  const std::string& policy) {
  using Policy = core::ShardSpec::Policy;
  if (spec.shard.policy != Policy::All) {
    throw std::invalid_argument(
        "--shard: the spec already selects shard " +
        std::to_string(spec.shard.shard_index) + "/" +
        std::to_string(spec.shard.num_shards) + " (policy " +
        to_string(spec.shard.policy) + ")");
  }
  std::size_t index = 0, count = 0;
  char extra = 0;
  if (std::sscanf(shard.c_str(), "%zu/%zu%c", &index, &count, &extra) != 2 ||
      count == 0 || index >= count) {
    throw std::invalid_argument("--shard '" + shard +
                                "' is not i/n with 0 <= i < n");
  }
  const std::string name = policy.empty() ? "contiguous" : policy;
  for (const Policy p :
       {Policy::Contiguous, Policy::ByStructure, Policy::ByPilotCost}) {
    if (to_string(p) == name) spec.shard.policy = p;
  }
  if (spec.shard.policy == Policy::All) {
    throw std::invalid_argument("--policy '" + name +
                                "' is not one of contiguous | by_structure "
                                "| by_pilot_cost");
  }
  spec.shard.num_shards = count;
  spec.shard.shard_index = index;
}

/// --merge: recombines shard result files, reports the achieved load
/// balance (the pilot-cost plans exist to shrink it) and, with
/// --parity-check, gates the merge against a single-process rerun.
int merge_results(const util::Cli& cli) {
  std::vector<core::ExperimentResult> parts;
  std::istringstream paths(cli.get_string("merge"));
  for (std::string path; std::getline(paths, path, ',');) {
    if (path.empty()) continue;
    parts.push_back(
        core::ExperimentResult::from_json(util::read_json_file(path)));
  }
  const auto merged = core::merge_experiment_results(parts);
  const core::GridSpec grid = merged.spec.grid();
  std::printf("run_experiment: merged %zu shard(s) of %s (%s), %zu grid "
              "point(s), policy %s\n",
              parts.size(), merged.spec.name.c_str(),
              merged.spec.mode.c_str(), grid.num_points(),
              merged.shard_policy.c_str());
  double slowest = 0.0;
  double fastest = std::numeric_limits<double>::infinity();
  for (const auto& part : parts) {
    double seconds = 0.0;
    for (const auto& run : part.backends) seconds += run.seconds;
    slowest = std::max(slowest, seconds);
    fastest = std::min(fastest, seconds);
    std::printf("  shard %zu: points [%zu, %zu), %.2f s\n", part.shard_index,
                part.range.begin, part.range.end, seconds);
  }
  std::printf("  load balance: slowest/fastest shard = %.2fx\n\n",
              fastest > 0.0 ? slowest / fastest
                            : std::numeric_limits<double>::infinity());
  print_points(merged.spec, grid, merged);

  bool ok = true;
  if (cli.get_int("parity-check") != 0) {
    core::ExperimentServiceOptions opts;
    opts.threads = static_cast<std::size_t>(cli.get_int("threads"));
    core::ExperimentService service(opts);
    const auto single = service.run(merged.spec);
    ok = single.canonical_json().at("backends").dump() ==
         merged.canonical_json().at("backends").dump();
    std::printf("\nparity merge (single-process rerun):       backends %s "
                "-> %s\n",
                ok ? "bytes equal" : "BYTES DIFFER", ok ? "ok" : "FAIL");
  }
  const std::string out = cli.get_string("out");
  if (!out.empty()) {
    util::write_json_file(out, merged.to_json());
    std::printf("\nresult written: %s\n", out.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("run_experiment",
                "execute a declarative experiment spec (JSON) through "
                "core::ExperimentService");
  cli.flag("spec", std::string(""), "spec JSON file to execute");
  cli.flag("preset", std::string(""),
           "named preset instead of --spec (see --list-presets)");
  cli.flag("list-presets", 0, "print the preset names and exit (0|1)");
  cli.flag("smoke", 0, "build the preset in smoke mode (0|1)");
  cli.flag("spec-out", std::string(""),
           "write the (preset) spec JSON here — with --spec, write the "
           "canonical re-serialisation");
  cli.flag("out", std::string(""), "result JSON output path");
  cli.flag("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.flag("round-trip-check", 0,
           "fail unless the parsed spec re-serialises to the input file "
           "byte-for-byte (0|1)");
  cli.flag("parity-check", 0,
           "re-answer along independent paths (with --merge: one "
           "single-process rerun) and gate equality (0|1)");
  cli.flag("tolerance", 1e-12,
           "max relative analytic difference tolerated by --parity-check");
  cli.flag("shard", std::string(""),
           "answer only shard i of n of the spec's grid, as i/n");
  cli.flag("policy", std::string(""),
           "--shard split: contiguous (default) | by_structure | "
           "by_pilot_cost");
  cli.flag("merge", std::string(""),
           "comma-separated shard result files to merge instead of "
           "running a spec");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_int("list-presets") != 0) {
      for (const auto& name : core::experiment_preset_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }

    const std::string spec_path = cli.get_string("spec");
    const std::string preset = cli.get_string("preset");
    const std::string shard = cli.get_string("shard");
    const bool merge = !cli.get_string("merge").empty();
    if (int{!spec_path.empty()} + int{!preset.empty()} + int{merge} != 1) {
      std::fprintf(stderr,
                   "run_experiment: exactly one of --spec, --preset or "
                   "--merge is required\n");
      return 1;
    }
    if (shard.empty() && !cli.get_string("policy").empty()) {
      std::fprintf(stderr, "run_experiment: --policy needs --shard\n");
      return 1;
    }
    if (merge) {
      if (!shard.empty()) {
        std::fprintf(stderr,
                     "run_experiment: --merge takes no --shard\n");
        return 1;
      }
      return merge_results(cli);
    }

    core::ExperimentSpec spec;
    if (!spec_path.empty()) {
      const std::string text = read_file(spec_path);
      spec = core::ExperimentSpec::from_json(util::Json::parse(text));
      if (cli.get_int("round-trip-check") != 0) {
        const std::string canonical = spec.to_json().dump();
        if (canonical != text) {
          std::fprintf(stderr,
                       "run_experiment: %s is not canonical — the parsed "
                       "spec re-serialises differently (use --spec-out to "
                       "write the canonical form)\n",
                       spec_path.c_str());
          return 1;
        }
        std::printf("round-trip check: %s is byte-for-byte canonical\n",
                    spec_path.c_str());
      }
    } else {
      spec = core::experiment_preset(preset, cli.get_int("smoke") != 0);
    }
    if (!shard.empty()) select_shard(spec, shard, cli.get_string("policy"));

    const std::string spec_out = cli.get_string("spec-out");
    if (!spec_out.empty()) {
      util::write_json_file(spec_out, spec.to_json());
      std::printf("spec written: %s\n", spec_out.c_str());
      if (spec_path.empty() && cli.get_string("out").empty() &&
          cli.get_int("parity-check") == 0) {
        return 0;  // emit-only invocation
      }
    }

    core::ExperimentServiceOptions opts;
    opts.threads = static_cast<std::size_t>(cli.get_int("threads"));
    core::ExperimentService service(opts);
    const core::GridSpec grid = spec.grid();

    std::string backend_names;
    for (const auto kind : spec.backends) {
      backend_names += (backend_names.empty() ? "" : ", ") + to_string(kind);
    }
    std::printf("run_experiment: %s (%s), %zu grid point(s), backends: %s\n",
                spec.name.c_str(), spec.mode.c_str(), grid.num_points(),
                backend_names.c_str());

    const util::Stopwatch watch;
    const auto result = service.run(spec);
    std::printf("evaluated points [%zu, %zu) in %.2f s\n\n",
                result.range.begin, result.range.end, watch.seconds());
    print_points(spec, grid, result);

    bool ok = true;
    if (cli.get_int("parity-check") != 0) {
      std::printf("\n");
      ok = parity_check(spec, grid, result, cli.get_double("tolerance"));
    }

    const std::string out = cli.get_string("out");
    if (!out.empty()) {
      util::write_json_file(out, result.to_json());
      std::printf("\nresult written: %s\n", out.c_str());
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_experiment: %s\n", e.what());
    return 1;
  }
}
