// Batched sweep engine — the evaluation path behind every figure and
// ablation in the paper, built on one observation: a TIDS / detection-
// shape / voter-count sweep never changes the reachable state set or the
// edge structure of the SPN, only the rate values.  The engine therefore
//   1. explores the reachability graph ONCE per structural configuration
//      (initial marking + guards + edge-existence pattern) and builds
//      its spn::AbsorbingAnalyzer once,
//   2. fills per-point edge-rate/impulse arrays over the shared
//      structure (compute_rates, or compute_rates_batch for a batch)
//      instead of re-running spn::explore + marking hashing,
//   3. solves and accumulates every reward component in a single pass
//      (GcsSpnModel::evaluate_with / evaluate_with_batch), and
//   4. drives the points — or batches of kDefaultBatchWidth points —
//      through sim::parallel_for.
// Structure caching persists across calls, so a bench that sweeps four
// m-values over the TIDS grid pays for one exploration in total.  The
// one knob is the worker count.
//
// This is the analytic engine behind core::ExperimentService: grids,
// shard slices and Monte-Carlo validation are described as a
// core::ExperimentSpec and answered by ExperimentService::run, which
// hands each slice's points to evaluate() (see src/core/experiment.h).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gcs_spn_model.h"
#include "core/params.h"

namespace midas::core {

/// One point of a 1-D TIDS sweep (core::sweep_t_ids, core/optimizer.h).
struct SweepPoint {
  double t_ids = 0.0;
  Evaluation eval;
};

struct SweepResult {
  std::vector<SweepPoint> points;

  /// Index of the point with maximal MTTSF / minimal Ĉtotal.
  [[nodiscard]] std::size_t argmax_mttsf() const;
  [[nodiscard]] std::size_t argmin_ctotal() const;
  [[nodiscard]] const SweepPoint& best_mttsf() const {
    return points[argmax_mttsf()];
  }
  [[nodiscard]] const SweepPoint& best_ctotal() const {
    return points[argmin_ctotal()];
  }
};

/// Grid points per batched solve unless the caller names a width (the
/// spec-level knob ExperimentSpec::analytic.batch defaults to it): runs
/// of points sharing one explored structure are chunked into batches of
/// this width and solved through the point-major batch path
/// (compute_rates_batch → solve_batch → evaluate_with_batch), with
/// scratch from the worker thread's arena and LU factorisations shared
/// across points whose normalised dense SCC blocks coincide
/// (spn::BatchSolveOptions::factor_reuse): results are within 1e-12
/// relative of the scalar path and independent of batch/shard grouping.
inline constexpr std::size_t kDefaultBatchWidth = 8;

struct SweepEngineOptions {
  /// Worker threads for the point loop (0 = hardware concurrency).
  std::size_t threads = 0;
};

/// The key under which parameter points share one explored structure:
/// everything that can change the reachable set or the existence of an
/// edge — initial marking, failure guards, group birth–death tables, and
/// the zero-pattern of each timed rate factor.  Exposed for tests.
[[nodiscard]] std::string structure_key(const Params& p);

class SweepEngine {
 public:
  explicit SweepEngine(SweepEngineOptions opts = {});

  /// Evaluates every parameter point; points whose structure_key()
  /// matches share one exploration (cached across calls).  Uses
  /// kDefaultBatchWidth.
  [[nodiscard]] std::vector<Evaluation> evaluate(
      std::span<const Params> points);

  /// As above with an explicit batch width (the spec-level
  /// analytic.batch knob): width <= 1 runs the scalar per-point path
  /// (the baseline the batch path is gated against); otherwise
  /// consecutive points sharing a structure are solved `batch_width` at
  /// a time through the point-major batch kernels.  Per-point results
  /// do not depend on the width (bitwise: the batch path is
  /// grouping-independent by construction).
  [[nodiscard]] std::vector<Evaluation> evaluate(
      std::span<const Params> points, std::size_t batch_width);

  struct Stats {
    std::size_t points = 0;            // points evaluated
    std::size_t explorations = 0;      // structural configs explored
    std::size_t states_explored = 0;   // Σ states over fresh explorations
    std::size_t states_evaluated = 0;  // Σ states over all points
    double seconds = 0.0;              // wall clock inside evaluate()
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct CacheEntry {
    std::once_flag once;
    std::shared_ptr<const spn::ReachabilityGraph> graph;
    // Structure shared by every point: absorbing mask, transient
    // compaction, SCC condensation (solve(edge_rates) is const).
    std::unique_ptr<const spn::AbsorbingAnalyzer> analyzer;
  };

  SweepEngineOptions opts_;
  std::unordered_map<std::string, std::unique_ptr<CacheEntry>> cache_;
  std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace midas::core
