#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/params.h"
#include "core/schedule.h"
#include "sim/attacker_model.h"
#include "sim/rng.h"

namespace perfbench {

using midas::core::AxisSpec;
using midas::core::BackendKind;
using midas::core::ExperimentSpec;
using midas::core::Params;

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::AnalyticSweep:
      return "analytic_sweep";
    case Workload::DesValidation:
      return "des_validation";
    case Workload::TimelineMix:
      return "timeline_mix";
  }
  return "?";
}

std::vector<Workload> all_workloads() {
  return {Workload::AnalyticSweep, Workload::DesValidation,
          Workload::TimelineMix};
}

Workload workload_from(const std::string& name) {
  for (const Workload w : all_workloads()) {
    if (name == to_string(w)) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected analytic_sweep | des_validation "
                              "| timeline_mix)");
}

std::uint64_t Rng::next() {
  const std::uint64_t r = midas::sim::splitmix64(state_);
  state_ += 0x9E3779B97F4A7C15ULL;
  return r;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

namespace {

// Structural pool of analytic_sweep: (n_init, max_groups).  Entry 0 is
// the paper configuration and answers the set-up request.  All entries
// have similar state counts, so warm requests cost alike and the median
// latency does not hinge on which pool entry a seed favours; the cold
// structures (fresh_structures_) also vary max_groups.
constexpr std::pair<int, int> kPool[] = {{100, 3}, {96, 3}, {104, 3}, {92, 3}};
// One request in this many explores a structure never seen before.
constexpr int kExploreEvery = 10;
// One des_validation request in this many carries a spec.mc.vr block.
constexpr int kVrEvery = 13;
// One des_validation model request in this many is an analytic cross-check.
constexpr int kCheckEvery = 4;

/// Rounds to 4 significant digits, so generated specs read cleanly.
double tidy(double v) {
  if (v == 0.0) return 0.0;
  const double scale =
      std::pow(10.0, 3 - static_cast<int>(std::floor(std::log10(std::abs(v)))));
  return std::round(v * scale) / scale;
}

/// `count` ascending values, log-uniform in [lo, hi] and stratified: value
/// k falls in the k-th of `count` equal log-width bins, so every request
/// spans the whole range and per-request cost varies little across seeds.
std::vector<double> stratified_log_values(Rng& rng, std::size_t count,
                                          double lo, double hi) {
  std::vector<double> out;
  const double step = std::log(hi / lo) / static_cast<double>(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double bin_lo = lo * std::exp(step * static_cast<double>(k));
    double v = tidy(rng.log_uniform(bin_lo, bin_lo * std::exp(step)));
    while (!out.empty() && v <= out.back()) {
      v = tidy(rng.log_uniform(bin_lo, bin_lo * std::exp(step)));
    }
    out.push_back(v);
  }
  return out;
}

AxisSpec numeric_axis(const std::string& param, std::vector<double> values) {
  AxisSpec axis;
  axis.param = param;
  axis.values = std::move(values);
  return axis;
}

AxisSpec level_axis(const std::string& param,
                    std::vector<std::string> levels) {
  AxisSpec axis;
  axis.param = param;
  axis.levels = std::move(levels);
  return axis;
}

ExperimentSpec named(Workload w, std::uint64_t seed, std::size_t index) {
  ExperimentSpec spec;
  spec.name = std::string(to_string(w)) + "-" + std::to_string(seed) + "-" +
              std::to_string(index);
  spec.mode = "perfbench";
  spec.base = Params::paper_defaults();
  return spec;
}

}  // namespace

void set_max_groups(Params& p, int max_groups) {
  p.max_groups = max_groups;
  switch (max_groups) {
    case 1:
      p.partition_rates = {0.0, 0.0};
      p.merge_rates = {0.0, 0.0};
      break;
    case 2:
      p.partition_rates = {0.0, 2.5e-3, 0.0};
      p.merge_rates = {0.0, 0.0, 1.4e-2};
      break;
    default: {
      const Params paper = Params::paper_defaults();
      p.max_groups = paper.max_groups;
      p.partition_rates = paper.partition_rates;
      p.merge_rates = paper.merge_rates;
    }
  }
}

Params des_validation_base() {
  Params p = Params::paper_defaults();
  p.lambda_c = 1.0 / 2000.0;
  return p;
}

midas::sim::ProtocolSimParams protocol_point(const ExperimentSpec& spec,
                                             const Params& point) {
  midas::sim::ProtocolSimParams q;
  q.model = point;
  q.mobility = spec.protocol.mobility;
  q.radio_range_m = spec.protocol.radio_range_m;
  q.tick_s = spec.protocol.tick_s;
  q.topology_refresh_s = spec.protocol.topology_refresh_s;
  q.max_time_s = spec.protocol.max_time_s;
  return q;
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), rng_(seed ^ 0x5BD1E995ULL) {
  if (workload_ == Workload::AnalyticSweep) {
    // Never-seen structures, alternating max_groups 2 and 3 (their state
    // counts differ most), each half in seeded order of n_init.
    std::vector<int> n2, n3;
    for (int n = 88; n <= 112; ++n) {
      n2.push_back(n);
      const bool pooled =
          std::any_of(std::begin(kPool), std::end(kPool),
                      [&](const auto& s) { return s.first == n; });
      if (!pooled) n3.push_back(n);
    }
    rng_.shuffle(n2);
    rng_.shuffle(n3);
    for (std::size_t i = 0; i < std::max(n2.size(), n3.size()); ++i) {
      if (i < n2.size()) fresh_structures_.emplace_back(n2[i], 2);
      if (i < n3.size()) fresh_structures_.emplace_back(n3[i], 3);
    }
  }
}

int RequestStream::next_kind(std::vector<int>& block, int num_kinds) {
  if (block.empty()) {
    for (int k = 0; k < num_kinds; ++k) block.push_back(k);
    rng_.shuffle(block);
  }
  const int kind = block.back();
  block.pop_back();
  return kind;
}

ExperimentSpec RequestStream::next() {
  const bool setup = index_ == 0;
  ExperimentSpec spec;
  switch (workload_) {
    case Workload::AnalyticSweep:
      spec = analytic_request(setup);
      break;
    case Workload::DesValidation:
      spec = des_request(setup);
      break;
    case Workload::TimelineMix:
      spec = timeline_request(setup);
      break;
  }
  ++index_;
  return spec;
}

// analytic_sweep: a TIDS axis crossed with one second axis, 36 points
// per request at paper population, analytic backend only.
ExperimentSpec RequestStream::analytic_request(bool setup) {
  ExperimentSpec spec = named(workload_, seed_, index_);
  // The set-up request is always fig2's num_voters {3,5,7,9} × TIDS grid
  // on the paper structure, so setup_s measures the same cold path (the
  // same voting tables) for every seed.
  const bool explore = !setup && next_kind(explore_block_, kExploreEvery) == 0;
  // Cold requests cycle through the second axes on their own, so every
  // run explores with the same mix (it sets the tail).
  const int kind =
      setup ? 0 : next_kind(explore ? cold_kind_block_ : kind_block_, 5);
  std::pair<int, int> structure = kPool[0];
  if (explore) {
    structure = fresh_structures_[next_fresh_++ % fresh_structures_.size()];
  } else if (!setup) {
    const int num_pool = static_cast<int>(std::size(kPool));
    structure = kPool[next_kind(pool_block_, num_pool)];
  }
  spec.base.n_init = structure.first;
  set_max_groups(spec.base, structure.second);

  AxisSpec second;
  std::size_t tids_count = 9;
  switch (kind) {
    case 0: {  // num_voters: 4 of {3,5,7,9,11}
      std::vector<double> m{3, 5, 7, 9, 11};
      if (!setup) rng_.shuffle(m);
      m.resize(4);
      std::sort(m.begin(), m.end());
      second = numeric_axis("num_voters", m);
      break;
    }
    case 1:
    case 2: {
      std::vector<std::string> shapes{"logarithmic", "linear", "polynomial"};
      rng_.shuffle(shapes);
      second = level_axis(kind == 1 ? "detection_shape" : "attacker_shape",
                          shapes);
      tids_count = 12;
      break;
    }
    case 3: {
      auto mult = stratified_log_values(rng_, 4, 0.25, 4.0);
      for (auto& v : mult) v *= spec.base.lambda_c;
      second = numeric_axis("lambda_c", mult);
      break;
    }
    default:
      second = numeric_axis("host_ids_error",
                            stratified_log_values(rng_, 4, 0.001, 0.05));
  }
  spec.axes = {second, numeric_axis("t_ids", stratified_log_values(
                                                 rng_, tids_count, 5.0,
                                                 2400.0))};
  spec.backends = {BackendKind::Analytic};
  return spec;
}

// des_validation: detector_matrix / attacker_matrix_v2-shaped requests at
// paper population, CI-targeted stopping with antithetic pairs.  Most
// requests put all four detector models on one axis, so every request
// holds the same detector cost mix (cusum costs several times static)
// and latencies stay close together; one in kCheckEvery is an
// analytic-compatible cross-check answered by both backends, and one in
// kVrEvery is a variance-reduction request instead.
ExperimentSpec RequestStream::des_request(bool setup) {
  ExperimentSpec spec = named(workload_, seed_, index_);
  spec.mc.base_seed = rng_.next() >> 32;
  if (!setup && next_kind(vr_block_, kVrEvery) == 0) {
    // rare_event-shaped: constant static/poisson model, hot data rate,
    // fixed budget, Sobol + control variates + C2 splitting.
    set_max_groups(spec.base, 1);
    spec.base.num_voters = 9;
    spec.base.lambda_c = 1.0 / 2000.0;
    spec.base.lambda_q = 1.0;
    spec.axes = {numeric_axis("t_ids", {tidy(rng_.log_uniform(15.0, 60.0)),
                                        tidy(rng_.log_uniform(600.0, 1200.0))}),
                 numeric_axis("n_init", {static_cast<double>(
                                            14 + rng_.below(5))})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.rel_ci_target = 0.0;
    spec.mc.min_replications = 256;
    spec.mc.max_replications = 256;
    spec.vr.sobol.enabled = true;
    spec.vr.sobol.replicates = 8;
    spec.vr.sobol.samples_per_replicate = 64;
    spec.vr.cv.enabled = true;
    spec.vr.cv.pilot = 128;
    spec.vr.cv.replications = 1024;
    spec.vr.splitting.enabled = true;
    spec.vr.splitting.target = "c2";
    spec.vr.splitting.levels = {2, 3, 4};
    spec.vr.splitting.scheme = "fixed_effort";
    spec.vr.splitting.effort = 512;
    spec.vr.splitting.replicates = 8;
    return spec;
  }
  using midas::sim::AttackerKind;
  constexpr AttackerKind attackers[] = {
      AttackerKind::Poisson, AttackerKind::Bursty, AttackerKind::Coordinated};
  // The presets' validation TIDS grid.
  constexpr double tids[] = {15.0, 120.0, 1200.0};
  spec.base = des_validation_base();
  if (setup || next_kind(check_block_, kCheckEvery) == 0) {
    // Cross-check: the analytic-compatible models (static and entropy
    // detectors under the poisson attacker) over the whole TIDS grid,
    // answered by both backends.  The set-up request is one with a fixed
    // seed, so setup_s measures the same cold path for every seed.
    if (setup) spec.mc.base_seed = 0xFACADE;
    spec.axes = {level_axis("detector_model", {"static", "entropy"}),
                 numeric_axis("t_ids", {std::begin(tids), std::end(tids)})};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
  } else {
    // detector_matrix: every detector at one TIDS point under one
    // attacker, DES only.  Each (attacker, TIDS) pair comes once per
    // block of 9, so any stretch of a run holds the same work mix.
    const int combo = next_kind(matrix_block_, 9);
    spec.base.attacker.kind = attackers[combo % 3];
    spec.axes = {level_axis("detector_model",
                            {"static", "entropy", "cusum", "logistic"}),
                 numeric_axis("t_ids", {tids[combo / 3]})};
    spec.backends = {BackendKind::Des};
  }
  spec.mc.antithetic = true;
  spec.mc.rel_ci_target = 0.10;
  return spec;
}

// timeline_mix: alternating phased missions at N=100 (analytic mission
// chaining + DES with survival horizons) and rate-schedule surges at the
// packet-level population (all three backends), fixed budgets.
ExperimentSpec RequestStream::timeline_request(bool setup) {
  ExperimentSpec spec = named(workload_, seed_, index_);
  const int kind = setup ? 0 : next_kind(kind_block_, 2);
  spec.mc.base_seed = rng_.next() >> 32;
  spec.mc.rel_ci_target = 0.0;
  if (kind == 0) {
    const double lc0 = spec.base.lambda_c;
    midas::core::MissionPhase infiltration;
    infiltration.name = "infiltration";
    infiltration.duration_s = tidy(rng_.uniform(20.0, 28.0)) * 3600.0;
    infiltration.lambda_c = tidy(rng_.uniform(0.2, 0.3)) * lc0;
    midas::core::MissionPhase assault;
    assault.name = "assault";
    assault.duration_s = tidy(rng_.uniform(40.0, 56.0)) * 3600.0;
    assault.lambda_c = tidy(rng_.uniform(3.5, 4.5)) * lc0;
    midas::core::MissionPhase recovery;
    recovery.name = "recovery";
    spec.base.mission.phases = {infiltration, assault, recovery};
    spec.axes = {numeric_axis("t_ids",
                              stratified_log_values(rng_, 4, 15.0, 1200.0))};
    spec.backends = {BackendKind::Analytic, BackendKind::Des};
    spec.mc.min_replications = 150;
    spec.mc.max_replications = 150;
    for (const double hours : {6.0, 24.0, 72.0, 168.0, 336.0}) {
      spec.mc.survival_horizons.push_back(hours * 3600.0);
    }
    return spec;
  }
  const auto defaults = midas::sim::ProtocolSimParams::small_defaults();
  spec.base = defaults.model;
  spec.base.cost.mean_hops = 1.6;
  spec.base.cost.sync_rekey_params();
  midas::core::ScheduleSegment baseline;
  baseline.name = "baseline";
  baseline.duration_s = tidy(rng_.uniform(500.0, 700.0));
  midas::core::ScheduleSegment surge;
  surge.name = "surge";
  surge.duration_s = tidy(rng_.uniform(3000.0, 4200.0));
  surge.mult.lambda_c = tidy(rng_.uniform(3.5, 4.5));
  midas::core::ScheduleSegment stand_down;
  stand_down.name = "stand-down";
  spec.base.schedule.segments = {baseline, surge, stand_down};
  spec.axes = {numeric_axis("t_ids",
                            stratified_log_values(rng_, 4, 30.0, 600.0))};
  spec.backends = {BackendKind::Analytic, BackendKind::Des,
                   BackendKind::ProtocolSim};
  spec.mc.min_replications = 12;
  spec.mc.max_replications = 12;
  spec.mc.block = 2;
  // Independent streams per point: protocol trajectory lengths are
  // heavy-tailed, and 4 independent samples per replication (instead of
  // one shared by every point) steady the request's cost.
  spec.mc.crn = false;
  spec.protocol.mobility = defaults.mobility;
  spec.protocol.radio_range_m = defaults.radio_range_m;
  spec.protocol.tick_s = defaults.tick_s;
  spec.protocol.topology_refresh_s = defaults.topology_refresh_s;
  spec.protocol.max_time_s = defaults.max_time_s;
  return spec;
}

}  // namespace perfbench
