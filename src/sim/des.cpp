#include "sim/des.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/mc_engine.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace midas::sim {

namespace {

std::int64_t per_group(std::int64_t total, std::int64_t groups) {
  if (groups <= 1) return total;
  return static_cast<std::int64_t>(std::llround(
      static_cast<double>(total) / static_cast<double>(groups)));
}

/// The effective (p1, p2) a detector takes within one constant segment,
/// when that set is finite: static keeps the base constants, cusum
/// switches between off and alarmed.  Empty for entropy and logistic.
std::vector<ids::EffectiveErrorRates> rate_levels(
    const ids::DetectorModel& detector, const core::Params& seg) {
  switch (detector.kind) {
    case ids::DetectorKind::Static:
      return {{seg.p1, seg.p2}};
    case ids::DetectorKind::Cusum:
      return {detector.cusum_level(seg.p1, seg.p2, false),
              detector.cusum_level(seg.p1, seg.p2, true)};
    default:
      return {};
  }
}

}  // namespace

DesContext::DesContext(const core::Params& params, TableFn table)
    : cost(params.cost) {
  // Mission phases and schedules override neither m nor N, so every
  // segment's tables share the base (m, N) and differ only in (p1, p2).
  auto add_segment = [&](const core::Params& seg) {
    auto& row = voting.emplace_back();
    for (const auto& eff : rate_levels(params.detector, seg)) {
      row.push_back(table(ids::VotingParams{params.num_voters, eff.p1, eff.p2},
                          params.n_init, params.n_init));
    }
  };
  if (!params.time_varying()) {
    add_segment(params);
    return;
  }
  for (const auto& seg : core::resolve_timeline(params)) {
    add_segment(seg.params);
  }
}

DesContext::DesContext(const core::Params& params)
    : DesContext(params, &ids::shared_voting_table) {}

DesContext DesContext::fresh(const core::Params& params) {
  return DesContext(params,
                    [](const ids::VotingParams& vp, std::int64_t max_good,
                       std::int64_t max_bad) {
                      return std::make_shared<const ids::VotingTable>(
                          vp, max_good, max_bad);
                    });
}

GroupSimulator::GroupSimulator(const core::Params& params,
                               const DesContext& context)
    : params_(&params), context_(&context) {
  params.validate();

  // Time-varying rates: resolve the schedule/mission into constant
  // segments and treat each breakpoint as a rate-change event.  The
  // constant case keeps `cur_` pointing at `params` itself and the
  // boundary at infinity, so every read below is bitwise the legacy
  // one and the truncation branch never fires.  The context holds the
  // voting tables of every segment.
  timed_ = params.time_varying();
  cur_ = &params;
  next_boundary_ = std::numeric_limits<double>::infinity();
  if (timed_) {
    timeline_ = core::resolve_timeline(params);
    cur_ = &timeline_[0].params;
    if (timeline_.size() > 1) next_boundary_ = timeline_[1].start_s;
  }
  if (context.voting.size() != (timed_ ? timeline_.size() : 1)) {
    throw std::invalid_argument(
        "GroupSimulator: context was built from different params");
  }

  s_.tm = params.n_init;
  // Attacker phase (bursty on/off modulation).  Non-bursty attackers
  // never flip it: phase_rate() is 0.0 there, which adds nothing to the
  // total rate (IEEE-exact) and the flip branch below is gated on
  // r_phase > 0.0 — so poisson trajectories consume the exact legacy
  // draw sequence.
  atk_on_ = true;
}

std::int64_t GroupSimulator::compromised() const noexcept { return s_.ucm; }

bool GroupSimulator::c2_failed() const {
  if (s_.members() == 0) return true;
  return static_cast<double>(s_.ucm) >
         params_->byzantine_fraction * static_cast<double>(s_.members()) +
             1e-9;
}

GroupSimulator::Snapshot GroupSimulator::snapshot() const {
  Snapshot snap;
  snap.tm = s_.tm;
  snap.ucm = s_.ucm;
  snap.ng = s_.ng;
  snap.now = now_;
  snap.atk_on = atk_on_;
  snap.seg_idx = seg_idx_;
  snap.traj = traj_;
  snap.status = status_;
  return snap;
}

void GroupSimulator::restore(const Snapshot& snap) {
  s_.tm = snap.tm;
  s_.ucm = snap.ucm;
  s_.ng = snap.ng;
  now_ = snap.now;
  atk_on_ = snap.atk_on;
  traj_ = snap.traj;
  status_ = snap.status;
  seg_idx_ = snap.seg_idx;
  if (timed_) {
    cur_ = &timeline_[seg_idx_].params;
    next_boundary_ = seg_idx_ + 1 < timeline_.size()
                         ? timeline_[seg_idx_ + 1].start_s
                         : std::numeric_limits<double>::infinity();
  }
}

GroupSimulator::Status GroupSimulator::step(RandomSource& draw) {
  if (status_ != Status::Running) {
    throw std::logic_error("GroupSimulator::step: already absorbed");
  }
  const core::Params& params = *params_;
  const gcs::CostModel& cost = context_->cost;

  if (c2_failed()) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = false;
    status_ = Status::FailedC2;
    return status_;
  }

  // Detector state observed by the plug-in model: DCm follows from
  // token conservation (evicted = N − Tm − UCm; the DES has no
  // join/leave events, mirroring the SPN).
  auto detector_state = [&] {
    ids::DetectorState ds;
    ds.compromised = s_.ucm;
    ds.evicted = std::max<std::int64_t>(params.n_init - s_.members(), 0);
    ds.population = s_.members();
    ds.elapsed_s = now_;
    return ds;
  };

  // Rates in the current state (mirrors GcsSpnModel::build()).
  double mc;
  if (params.attacker_progress == core::AttackerProgress::CampaignProgress) {
    // DCm follows from token conservation: evicted = N − Tm − UCm.
    mc = 1.0 + static_cast<double>(params.n_init - s_.tm);
  } else {
    mc = s_.tm > 0 ? static_cast<double>(s_.members()) /
                         static_cast<double>(s_.tm)
                   : 1.0;
  }
  const double md = std::max(
      1.0, static_cast<double>(params.n_init) /
               static_cast<double>(std::max<std::int64_t>(s_.members(), 1)));

  const double attack_base =
      s_.tm > 0 ? ids::attacker_rate(cur_->attacker_shape, cur_->lambda_c,
                                     mc, cur_->p_index)
                : 0.0;
  // Poisson: event_rate returns the base unchanged (bitwise).
  const double attack = params.attacker.event_rate(attack_base, atk_on_);
  const double r_phase = params.attacker.phase_rate(atk_on_);
  const double det = ids::detection_rate(cur_->detection_shape, cur_->t_ids,
                                         md, cur_->p_index);
  // Static and cusum detectors take finitely many effective (p1,p2)
  // per segment, so Equation 1 comes from the context's table for the
  // current level (cusum: alarmed or not), whose key is the effective
  // p1 that r_drq reads.  Entropy and logistic re-evaluate Equation 1
  // with the effective rates each event.
  const std::int64_t good = per_group(s_.tm, s_.ng);
  const std::int64_t bad = per_group(s_.ucm, s_.ng);
  const auto& levels = context_->voting[seg_idx_];
  ids::VotingErrorRates rates;
  double p1;
  if (!levels.empty()) {
    const bool alarmed =
        levels.size() > 1 && params.detector.cusum_alarmed(detector_state());
    const ids::VotingTable& table = *levels[alarmed ? 1 : 0];
    rates = table.at(good, bad);
    p1 = table.params().p1;
  } else {
    const auto eff =
        params.detector.effective(cur_->p1, cur_->p2, detector_state());
    rates = ids::voting_error_rates(
        ids::VotingParams{params.num_voters, eff.p1, eff.p2}, good, bad);
    p1 = eff.p1;
  }
  const double r_ids = static_cast<double>(s_.ucm) * det * (1.0 - rates.pfn);
  const double r_fa = static_cast<double>(s_.tm) * det * rates.pfp;
  const double r_drq = p1 * cur_->lambda_q * static_cast<double>(s_.ucm);

  double r_par = 0.0, r_mer = 0.0;
  if (params.max_groups > 1) {
    const auto g = static_cast<std::size_t>(s_.ng);
    if (s_.ng < params.max_groups && s_.members() > s_.ng &&
        g < cur_->partition_rates.size()) {
      r_par = cur_->partition_rates[g];
    }
    if (s_.ng >= 2 && g < cur_->merge_rates.size()) {
      r_mer = cur_->merge_rates[g];
    }
  }

  const double total = attack + r_ids + r_fa + r_drq + r_par + r_mer + r_phase;
  if (total <= 0.0) {
    throw std::runtime_error(
        "simulate_group: deadlocked in a non-failure state");
  }

  // Cost accrues at the state's rate until the next event.
  gcs::GroupState gs;
  gs.members = static_cast<double>(s_.members());
  gs.groups = static_cast<double>(s_.ng);
  gs.initial_size = static_cast<double>(params.n_init);
  const auto breakdown =
      cost.breakdown(gs, cur_->lambda_q, params.lambda_join, params.mu_leave,
                     det, static_cast<std::size_t>(params.num_voters),
                     r_par + r_mer);

  const double dt = -std::log1p(-draw()) / total;
  if (now_ + dt > next_boundary_) {
    // Schedule/mission breakpoint before the sampled event: accrue
    // cost for the truncated dwell, switch segments and resample.
    // The exponential dwell is memoryless, so restarting the clock
    // under the new rates is exact, not an approximation.  The control
    // accumulators take the truncated dwell as-is (deterministic given
    // the path); their exact-mean property is claimed only for the
    // time-homogeneous model, where this branch never fires.
    traj_.accumulated_cost += breakdown.total() * (next_boundary_ - now_);
    traj_.expected_dwell += next_boundary_ - now_;
    traj_.expected_cost += breakdown.total() * (next_boundary_ - now_);
    now_ = next_boundary_;
    ++seg_idx_;
    cur_ = &timeline_[seg_idx_].params;
    next_boundary_ = seg_idx_ + 1 < timeline_.size()
                         ? timeline_[seg_idx_ + 1].start_s
                         : std::numeric_limits<double>::infinity();
    return status_;
  }
  now_ += dt;
  traj_.accumulated_cost += breakdown.total() * dt;
  // The conditional-expectation controls: E[dt | state] = 1/total and
  // E[dwell cost | state] = rate/total; dt and the event choice are
  // drawn independently, so summing these over the realised jump path
  // gives E[TTSF | path] / E[cost | path] exactly (time-homogeneous).
  traj_.expected_dwell += 1.0 / total;
  traj_.expected_cost += breakdown.total() / total;

  // Pick the event (Gillespie direct method).
  double u = draw() * total;
  if ((u -= attack) < 0.0) {
    // Coordinated attackers strike batch_size() victims at once
    // (capped by the trusted pool); single-victim kinds take the
    // legacy one-node step.
    const std::int64_t k =
        std::min<std::int64_t>(params.attacker.batch_size(), s_.tm);
    s_.tm -= k;
    s_.ucm += k;
    traj_.compromises += static_cast<std::size_t>(k);
    return status_;
  }
  if ((u -= r_ids) < 0.0) {
    --s_.ucm;
    ++traj_.true_evictions;
    traj_.accumulated_cost += cost.eviction_impulse_bits(gs);
    traj_.expected_cost += cost.eviction_impulse_bits(gs);
    return status_;
  }
  if ((u -= r_fa) < 0.0) {
    --s_.tm;
    ++traj_.false_evictions;
    traj_.accumulated_cost += cost.eviction_impulse_bits(gs);
    traj_.expected_cost += cost.eviction_impulse_bits(gs);
    return status_;
  }
  if ((u -= r_drq) < 0.0) {
    traj_.ttsf = now_;
    traj_.failed_by_c1 = true;  // data leak: C1
    status_ = Status::FailedC1;
    return status_;
  }
  if ((u -= r_par) < 0.0) {
    ++s_.ng;
    return status_;
  }
  if (r_phase > 0.0) {
    // Only bursty attackers have a phase event; the guard keeps the
    // legacy unchecked-merge fallback (and its floating-point
    // behaviour) intact for every other attacker kind.
    if ((u -= r_mer) < 0.0) {
      --s_.ng;
      return status_;
    }
    atk_on_ = !atk_on_;  // on/off flip (fallback event)
    return status_;
  }
  --s_.ng;  // merge
  return status_;
}

GroupSimulator::Status GroupSimulator::run(RandomSource& draw) {
  while (status_ == Status::Running) step(draw);
  return status_;
}

Trajectory simulate_group(const core::Params& params, RandomSource& draw,
                          const DesContext& context) {
  GroupSimulator sim(params, context);
  sim.run(draw);
  return sim.trajectory();
}

Trajectory simulate_group(const core::Params& params, std::uint64_t seed,
                          const DesContext& context) {
  UniformStream draw(seed);
  return simulate_group(params, draw, context);
}

Trajectory simulate_group(const core::Params& params, std::uint64_t seed) {
  return simulate_group(params, seed, DesContext(params));
}

ReplicationResult run_replications(const core::Params& params,
                                   std::size_t replications,
                                   std::uint64_t base_seed,
                                   std::size_t threads,
                                   bool capture_trajectories) {
  if (replications == 0) return {};  // empty summary, as the seed did

  McOptions opts;
  opts.base_seed = base_seed;
  opts.min_replications = replications;
  opts.max_replications = replications;
  opts.rel_ci_target = 0.0;  // fixed replication count
  opts.threads = threads;
  opts.capture_trajectories = capture_trajectories;
  MonteCarloEngine engine(opts);
  auto point = engine.run_des(params);

  ReplicationResult result;
  result.ttsf = point.ttsf;
  result.cost_rate = point.cost_rate;
  result.p_failure_c1 = point.p_failure_c1;
  result.trajectories = std::move(point.trajectories);
  return result;
}

ReplicationResult run_replications_reference(const core::Params& params,
                                             std::size_t replications,
                                             std::uint64_t base_seed,
                                             std::size_t threads) {
  ReplicationResult result;
  result.trajectories.resize(replications);

  parallel_for(
      replications,
      [&](std::size_t i) {
        const DesContext context = DesContext::fresh(params);
        result.trajectories[i] =
            simulate_group(params, derive_seed(base_seed, i), context);
      },
      threads);

  std::vector<double> ttsf(replications), cost_rate(replications);
  std::size_t c1 = 0;
  for (std::size_t i = 0; i < replications; ++i) {
    ttsf[i] = result.trajectories[i].ttsf;
    cost_rate[i] = result.trajectories[i].mean_cost_rate();
    if (result.trajectories[i].failed_by_c1) ++c1;
  }
  result.ttsf = summarize(ttsf);
  result.cost_rate = summarize(cost_rate);
  result.p_failure_c1 = replications > 0
                            ? static_cast<double>(c1) /
                                  static_cast<double>(replications)
                            : 0.0;
  return result;
}

}  // namespace midas::sim
