#include "sim/mc_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "util/stopwatch.h"

namespace midas::sim {

namespace {

/// Streaming accumulators for one block or one point.  The Welfords
/// hold one entry per SAMPLE (a replication, or an antithetic pair
/// average); the counters count TRAJECTORIES.
struct Accum {
  Welford ttsf;
  Welford cost_rate;
  std::size_t num_trajectories = 0;
  std::size_t c1 = 0;
  std::size_t timeouts = 0;
  bool keys_ok = true;
  std::vector<std::size_t> survival;  // survivor counts per horizon
  std::vector<Trajectory> trajectories;

  explicit Accum(std::size_t horizons) : survival(horizons, 0) {}

  void merge(const Accum& other) {
    ttsf.merge(other.ttsf);
    cost_rate.merge(other.cost_rate);
    num_trajectories += other.num_trajectories;
    c1 += other.c1;
    timeouts += other.timeouts;
    keys_ok = keys_ok && other.keys_ok;
    for (std::size_t h = 0; h < survival.size(); ++h) {
      survival[h] += other.survival[h];
    }
    trajectories.insert(trajectories.end(), other.trajectories.begin(),
                        other.trajectories.end());
  }
};

/// A scheduled work item: replications [first_rep, first_rep + count)
/// of sweep point `point`.
struct Item {
  std::size_t point = 0;
  std::size_t first_rep = 0;
  std::size_t count = 0;
};

/// Replications per parallel work unit: small enough that a round's
/// costly items (a cusum block beside static ones) spread over every
/// worker instead of leaving one straggler.
constexpr std::size_t kChunkReps = 4;

/// Replications in flight at once.  A larger round runs in waves, so
/// the stored samples stay bounded whatever the budget.
constexpr std::size_t kWindowReps = 4096;

bool within_target(const Welford& w, double rel_target) {
  // One replication has a degenerate zero-width CI — never "converged".
  if (w.count() < 2) return false;
  const Summary s = w.summary();
  return s.ci_half_width <=
         rel_target * std::max(std::fabs(s.mean), 1e-300);
}

/// Replications needed for a relative 95% half-width target, from the
/// current variance estimate (normal quantile; the round loop re-checks
/// with the exact t quantile, so this only has to be a decent guess).
/// Clamped to `cap` before the cast — a degenerate mean/variance must
/// not overflow the size_t conversion.
std::size_t reps_needed(const Welford& w, double rel_target,
                        std::size_t cap) {
  const double mean = std::fabs(w.mean());
  if (mean <= 0.0 || w.count() < 2) return w.count() * 2;
  const double z = 1.96 * std::sqrt(w.variance()) / (rel_target * mean);
  const double need = std::ceil(z * z);
  if (!std::isfinite(need) || need >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(need);
}

}  // namespace

MonteCarloEngine::MonteCarloEngine(McOptions opts) : opts_(std::move(opts)) {
  if (opts_.min_replications == 0 || opts_.block == 0) {
    throw std::invalid_argument(
        "MonteCarloEngine: min_replications and block must be positive");
  }
  opts_.max_replications =
      std::max(opts_.max_replications, opts_.min_replications);
}

std::uint64_t MonteCarloEngine::replication_seed(std::size_t point,
                                                 std::size_t rep) const {
  // CRN: one substream shared by every point; independent: substream
  // keyed by the GLOBAL point index (offset so the layouts never
  // coincide, and shifted by point_stream_offset so a shard reproduces
  // the full-grid streams).
  const std::uint64_t stream =
      opts_.crn ? 0 : opts_.point_stream_offset + point + 1;
  return derive_seed2(opts_.base_seed, stream, rep);
}

template <typename SampleFn>
std::vector<McPointResult> MonteCarloEngine::run_grid(
    std::size_t num_points, const SampleFn& sample) {
  const std::size_t horizons = opts_.survival_horizons.size();
  const bool adaptive = opts_.rel_ci_target > 0.0;

  struct PointState {
    Accum accum;
    std::size_t scheduled = 0;
    bool converged = false;
    explicit PointState(std::size_t h) : accum(h) {}
  };
  std::vector<PointState> state(num_points, PointState(horizons));

  // Trajectory-level statistics (failure split, survival indicators,
  // capture) accumulate per trajectory regardless of pairing; only the
  // Welford samples are pair-averaged.
  const auto record = [&](Accum& acc, const Sample& s) {
    ++acc.num_trajectories;
    if (s.traj.failed_by_c1) ++acc.c1;
    if (s.timed_out) ++acc.timeouts;
    acc.keys_ok = acc.keys_ok && s.keys_ok;
    for (std::size_t h = 0; h < horizons; ++h) {
      if (s.traj.ttsf > opts_.survival_horizons[h]) ++acc.survival[h];
    }
    if (opts_.capture_trajectories) acc.trajectories.push_back(s.traj);
  };
  // One replication: a sample `s`, or an antithetic pair (s, *t).
  const auto accumulate = [&](Accum& acc, const Sample& s, const Sample* t) {
    record(acc, s);
    if (t == nullptr) {
      acc.ttsf.push(s.traj.ttsf);
      acc.cost_rate.push(s.traj.mean_cost_rate());
      return;
    }
    // The pair's flipped member shares the seed; one Welford sample per
    // pair keeps the CI (and the stopping rule) honest about the
    // negative within-pair correlation.
    record(acc, *t);
    acc.ttsf.push(0.5 * (s.traj.ttsf + t->traj.ttsf));
    acc.cost_rate.push(0.5 *
                       (s.traj.mean_cost_rate() + t->traj.mean_cost_rate()));
  };

  while (true) {
    // Schedule the next batch for every unconverged point.  The first
    // round runs min_replications; later rounds grow toward the
    // variance-estimated requirement in block multiples.
    std::vector<Item> items;
    for (std::size_t p = 0; p < num_points; ++p) {
      auto& st = state[p];
      if (st.converged || st.scheduled >= opts_.max_replications) continue;
      std::size_t want;
      if (st.scheduled == 0) {
        want = opts_.min_replications;
      } else {
        const std::size_t need = std::max(
            reps_needed(st.accum.ttsf, opts_.rel_ci_target,
                        opts_.max_replications),
            reps_needed(st.accum.cost_rate, opts_.rel_ci_target,
                        opts_.max_replications));
        // Grow by at least one block and at most ~3x, so a noisy early
        // variance estimate neither stalls nor wildly overshoots.
        const std::size_t cap = std::max(3 * st.scheduled, opts_.block);
        want = std::clamp(need > st.scheduled ? need - st.scheduled
                                              : opts_.block,
                          opts_.block, cap);
      }
      want = std::min(want, opts_.max_replications - st.scheduled);
      for (std::size_t first = 0; first < want; first += opts_.block) {
        items.push_back({p, st.scheduled + first,
                         std::min(opts_.block, want - first)});
      }
      st.scheduled += want;
    }
    if (items.empty()) break;

    // One schedule over every (point, block) item of the round, cut
    // into waves of at most kWindowReps replications in schedule
    // order.  A wave runs as fixed chunks of kChunkReps replications
    // on the pool, each writing its samples into its own slots; then
    // the wave's samples accumulate serially in replication order,
    // item by item, and each finished item merges into its point in
    // schedule order.  So every Welford sees the same pushes and
    // merges as a serial run, whatever the chunking or thread count,
    // and captured trajectories land in replication order.
    const std::size_t per_rep = opts_.antithetic ? 2 : 1;
    struct Chunk {
      std::size_t item = 0;
      std::size_t first_rep = 0;
      std::size_t count = 0;
      std::size_t slot = 0;  // first sample slot of the chunk
    };
    std::vector<Chunk> chunks;
    std::vector<Sample> slots;
    Accum acc(horizons);  // the current item's block accumulator
    std::size_t next_item = 0, next_offset = 0;
    while (next_item < items.size()) {
      chunks.clear();
      std::size_t reps = 0;
      while (next_item < items.size() && reps < kWindowReps) {
        const Item& item = items[next_item];
        const std::size_t n = std::min(
            {kChunkReps, item.count - next_offset, kWindowReps - reps});
        chunks.push_back(
            {next_item, item.first_rep + next_offset, n, reps * per_rep});
        reps += n;
        next_offset += n;
        if (next_offset == item.count) {
          ++next_item;
          next_offset = 0;
        }
      }
      slots.resize(reps * per_rep);
      parallel_for(
          chunks.size(),
          [&](std::size_t c) {
            const Chunk& chunk = chunks[c];
            const std::size_t point = items[chunk.item].point;
            Sample* out = &slots[chunk.slot];
            for (std::size_t k = 0; k < chunk.count; ++k) {
              const std::size_t rep = chunk.first_rep + k;
              const std::uint64_t seed = replication_seed(point, rep);
              *out++ = sample(point, rep, seed, false);
              if (opts_.antithetic) *out++ = sample(point, rep, seed, true);
            }
          },
          opts_.threads);

      for (const Chunk& chunk : chunks) {
        for (std::size_t k = 0; k < chunk.count; ++k) {
          const Sample* s = &slots[chunk.slot + k * per_rep];
          accumulate(acc, s[0], opts_.antithetic ? &s[1] : nullptr);
        }
        const Item& item = items[chunk.item];
        if (chunk.first_rep + chunk.count == item.first_rep + item.count) {
          state[item.point].accum.merge(acc);
          acc = Accum(horizons);
        }
      }
    }
    stats_.blocks += items.size();
    ++stats_.rounds;

    for (auto& st : state) {
      if (st.converged || st.accum.ttsf.count() < opts_.min_replications) {
        continue;
      }
      st.converged =
          !adaptive ||
          (within_target(st.accum.ttsf, opts_.rel_ci_target) &&
           within_target(st.accum.cost_rate, opts_.rel_ci_target));
    }
  }

  std::vector<McPointResult> results;
  results.reserve(num_points);
  for (auto& st : state) {
    McPointResult r;
    r.ttsf = st.accum.ttsf.summary();
    r.cost_rate = st.accum.cost_rate.summary();
    r.ttsf_state = st.accum.ttsf.state();
    r.cost_rate_state = st.accum.cost_rate.state();
    r.replications = st.accum.num_trajectories;
    r.failures_c1 = st.accum.c1;
    r.p_failure_c1 = r.replications > 0
                         ? static_cast<double>(st.accum.c1) /
                               static_cast<double>(r.replications)
                         : 0.0;
    r.p_failure = binomial_summary(r.replications, st.accum.c1);
    r.converged = st.converged;
    r.survival.reserve(horizons);
    for (const std::size_t count : st.accum.survival) {
      r.survival.push_back(binomial_summary(r.replications, count));
    }
    r.survival_counts = st.accum.survival;
    r.trajectories = std::move(st.accum.trajectories);
    r.keys_always_agreed = st.accum.keys_ok;
    r.timeouts = st.accum.timeouts;
    stats_.replications += r.replications;
    results.push_back(std::move(r));
  }
  stats_.points += num_points;
  return results;
}

std::vector<McPointResult> MonteCarloEngine::run_des(
    std::span<const core::Params> points) {
  const util::Stopwatch watch;
  // Shared per-point contexts, built once for the whole grid (the memo
  // collapses identical voting configurations across points).  Counted
  // in stats_.seconds: the context build is part of the engine's cost.
  std::vector<DesContext> contexts;
  contexts.reserve(points.size());
  for (const auto& p : points) contexts.emplace_back(p);

  std::vector<McPointResult> results;
  if (opts_.stream_factory) {
    results = run_grid(
        points.size(),
        [&](std::size_t point, std::size_t rep, std::uint64_t /*seed*/,
            bool antithetic) -> Sample {
          const std::uint64_t stream =
              opts_.crn ? 0 : opts_.point_stream_offset + point + 1;
          auto draw = opts_.stream_factory(stream, rep, antithetic);
          return {simulate_group(points[point], *draw, contexts[point]),
                  true, false};
        });
  } else {
    results = run_grid(
        points.size(),
        [&](std::size_t point, std::size_t /*rep*/, std::uint64_t seed,
            bool antithetic) -> Sample {
          UniformStream draw(seed, antithetic);
          return {simulate_group(points[point], draw, contexts[point]), true,
                  false};
        });
  }
  stats_.seconds += watch.seconds();
  return results;
}

McPointResult MonteCarloEngine::run_des(const core::Params& point) {
  auto results = run_des(std::span<const core::Params>(&point, 1));
  return std::move(results.front());
}

std::vector<McPointResult> MonteCarloEngine::run_protocol(
    std::span<const ProtocolSimParams> points) {
  const util::Stopwatch watch;
  auto results = run_grid(
      points.size(),
      [&](std::size_t point, std::size_t /*rep*/, std::uint64_t seed,
          bool antithetic) -> Sample {
        const ProtocolSimResult r =
            run_protocol_sim(points[point], seed, antithetic);
        Sample s;
        s.traj.ttsf = r.ttsf;
        s.traj.accumulated_cost = r.traffic_hop_bits;
        s.traj.failed_by_c1 = r.failed_by_c1;
        s.traj.compromises = r.compromises;
        s.traj.true_evictions = r.true_evictions;
        s.traj.false_evictions = r.false_evictions;
        s.keys_ok = r.keys_always_agreed;
        s.timed_out = r.timed_out;
        return s;
      });
  stats_.seconds += watch.seconds();
  return results;
}

}  // namespace midas::sim
