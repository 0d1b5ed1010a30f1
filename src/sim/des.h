// Discrete-event Monte-Carlo simulator of the mobile-group process —
// the validation path.  It simulates the same stochastic process as the
// SPN (exponential races via Gillespie's direct method) but is coded
// independently of the SPN engine, so agreement between the two is a
// genuine cross-check of both the model construction and the numerical
// solvers (the paper validates its analytical model by simulation only;
// we reproduce that methodology and make it a regression test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "gcs/cost_model.h"
#include "ids/voting.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace midas::sim {

/// Outcome of a single replication.
struct Trajectory {
  double ttsf = 0.0;            // time to security failure (s)
  double accumulated_cost = 0.0;  // hop-bits until failure
  bool failed_by_c1 = false;    // data leak (else Byzantine/C2)
  std::size_t compromises = 0;
  std::size_t true_evictions = 0;
  std::size_t false_evictions = 0;
  /// Conditional-expectation controls, accumulated for free alongside
  /// the trajectory: expected_dwell = Σ 1/total_rate over the visited
  /// states (= E[TTSF | jump path], whose mean is EXACTLY the analytic
  /// MTTSF in the time-homogeneous model) and expected_cost = the same
  /// sum weighted by the state cost rates plus the deterministic
  /// eviction impulses (mean = analytic ctotal × MTTSF).  The vr
  /// control-variate estimator regresses TTSF/cost on these: they
  /// carry the entire jump-path variance, leaving only the exponential
  /// holding-time noise behind.
  double expected_dwell = 0.0;
  double expected_cost = 0.0;

  [[nodiscard]] double mean_cost_rate() const {
    return ttsf > 0.0 ? accumulated_cost / ttsf : 0.0;
  }
};

/// Immutable per-parameter-point context shared by every replication of
/// that point: the O(N²) voting tables and the cost model.  Building
/// these once per point instead of once per trajectory is the DES
/// analog of the sweep engine's shared exploration — at the validation
/// population the table build costs as much as a whole trajectory.
struct DesContext {
  /// Via the process-wide ids::shared_voting_table memo, so a TIDS
  /// sweep (identical voting parameters at every point) shares one
  /// table across the entire grid.
  explicit DesContext(const core::Params& params);

  /// Seed-era behaviour: private tables built from scratch (no memo).
  /// Kept for the benchmark baseline.
  [[nodiscard]] static DesContext fresh(const core::Params& params);

  /// Equation 1 tabulated per timeline segment (one segment for
  /// constant params) and per detector level: static has one level,
  /// its base (p1, p2); cusum two, off and alarmed
  /// (DetectorModel::cusum_level).  Each table's params() is the
  /// effective (m, p1, p2) it was built for.  Empty rows for entropy
  /// and logistic, whose rates vary continuously: the DES evaluates
  /// Equation 1 directly for them.
  std::vector<std::vector<std::shared_ptr<const ids::VotingTable>>> voting;
  gcs::CostModel cost;

 private:
  using TableFn = std::shared_ptr<const ids::VotingTable> (*)(
      const ids::VotingParams&, std::int64_t, std::int64_t);
  DesContext(const core::Params& params, TableFn table);
};

/// Step-wise form of the group DES — the same Gillespie loop as
/// simulate_group (which is now a thin wrapper over this class),
/// exposed one event at a time so estimation layers can interleave:
/// the vr multilevel-splitting runner watches the compromise count
/// between steps, snapshots the full simulation state at level
/// upcrossings and restarts clones from those entrance states.
/// Draws come from the RandomSource seam, so a clone continues under
/// a fresh independent stream while the state is an exact copy.
class GroupSimulator {
 public:
  enum class Status { Running, FailedC1, FailedC2 };

  /// Resolves the timeline once; `context` must be built from the
  /// same params and outlive the simulator.  Throws like
  /// simulate_group on invalid params.
  GroupSimulator(const core::Params& params, const DesContext& context);

  /// Advances by one Gillespie iteration (one event, or one
  /// schedule-boundary hop which consumes one dwell draw and no event
  /// draw).  Consumes draws in EXACTLY the simulate_group order.
  /// Calling step() after absorption throws std::logic_error.
  Status step(RandomSource& draw);

  /// Runs step() to absorption and returns the terminal status.
  Status run(RandomSource& draw);

  [[nodiscard]] Status status() const noexcept { return status_; }
  /// Undetected-compromised count UCm — the importance function the
  /// splitting levels threshold on.
  [[nodiscard]] std::int64_t compromised() const noexcept;
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Counters so far; ttsf/failed_by_c1 are final once absorbed.
  [[nodiscard]] const Trajectory& trajectory() const noexcept {
    return traj_;
  }

  /// Full copyable mid-trajectory state (places, clock, attacker
  /// phase, schedule segment, counters).  restore() on the simulator
  /// that produced it — or any simulator built from the same params —
  /// reproduces the exact continuation distribution.
  struct Snapshot {
    std::int64_t tm = 0;
    std::int64_t ucm = 0;
    std::int64_t ng = 1;
    double now = 0.0;
    bool atk_on = true;
    std::size_t seg_idx = 0;
    Trajectory traj;
    Status status = Status::Running;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  struct State {
    std::int64_t tm = 0;
    std::int64_t ucm = 0;
    std::int64_t ng = 1;
    [[nodiscard]] std::int64_t members() const { return tm + ucm; }
  };

  [[nodiscard]] bool c2_failed() const;

  const core::Params* params_;
  const DesContext* context_;
  bool timed_ = false;
  std::vector<core::TimelineSegment> timeline_;
  std::size_t seg_idx_ = 0;
  const core::Params* cur_;
  double next_boundary_ = 0.0;

  State s_;
  Trajectory traj_;
  double now_ = 0.0;
  bool atk_on_ = true;
  Status status_ = Status::Running;
};

/// Simulates one replication drawing from the given uniform stream —
/// the antithetic-capable entry point: a (plain, flipped) pair of
/// streams over one seed yields an antithetic trajectory pair.
/// Deterministic in (params, stream state); `context` must be built
/// from the same params.
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        RandomSource& draw,
                                        const DesContext& context);

/// Simulates one replication with the given seed and shared context
/// (a plain stream over `seed`; bitwise-identical to the pre-stream
/// code path).  Deterministic in (params, seed).
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        std::uint64_t seed,
                                        const DesContext& context);

/// Convenience single-shot form (builds the context via the memo).
[[nodiscard]] Trajectory simulate_group(const core::Params& params,
                                        std::uint64_t seed);

struct ReplicationResult {
  Summary ttsf;        // over replications
  Summary cost_rate;   // hop-bits/s
  double p_failure_c1 = 0.0;
  /// Raw trajectories — captured only when explicitly requested
  /// (`capture_trajectories`); empty otherwise, so replication runs are
  /// O(1) memory in the replication count.
  std::vector<Trajectory> trajectories;
};

/// Runs `replications` independent trajectories in parallel through the
/// Monte-Carlo engine and summarises with 95% CIs.  Streaming: raw
/// trajectories are only stored when `capture_trajectories` is set.
[[nodiscard]] ReplicationResult run_replications(
    const core::Params& params, std::size_t replications,
    std::uint64_t base_seed, std::size_t threads = 0,
    bool capture_trajectories = false);

/// The seed-era per-point replication loop, kept verbatim as the
/// benchmark/equivalence baseline (bench_mc): a fresh voting table per
/// trajectory, every trajectory stored, two-pass summaries, one
/// parallel_for per call.
[[nodiscard]] ReplicationResult run_replications_reference(
    const core::Params& params, std::size_t replications,
    std::uint64_t base_seed, std::size_t threads = 0);

}  // namespace midas::sim
