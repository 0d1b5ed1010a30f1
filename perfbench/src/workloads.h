// Request generators of the three benchmark workloads.  Each workload is
// an endless, deterministic stream of core::ExperimentSpec requests
// derived from one workload seed; the service under test only ever sees
// the generated specs (as JSON text).  Request 0 is the set-up request:
// it is answered untimed before the measurement window (and alone, in a
// fresh process, for setup_s).  See perfbench/README.md for why each
// workload exists and which layers it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "sim/protocol_sim.h"

namespace perfbench {

enum class Workload { AnalyticSweep, DesValidation, TimelineMix };

[[nodiscard]] const char* to_string(Workload w) noexcept;
/// Throws std::invalid_argument listing the known names.
[[nodiscard]] Workload workload_from(const std::string& name);
[[nodiscard]] std::vector<Workload> all_workloads();

/// splitmix64 stream: portable, so a seed names the same requests on
/// every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  double log_uniform(double lo, double hi);
  /// Uniform index in [0, n).
  std::size_t below(std::size_t n);
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  /// The next request (index 0, 1, 2, ... in order).
  [[nodiscard]] midas::core::ExperimentSpec next();

 private:
  midas::core::ExperimentSpec analytic_request(bool setup);
  midas::core::ExperimentSpec des_request(bool setup);
  midas::core::ExperimentSpec timeline_request(bool setup);

  /// Next kind from a seeded permutation of `kinds`, refilled when spent:
  /// every block of kinds.size() requests holds each kind exactly once,
  /// so the work mix of a run does not drift with the seed.
  int next_kind(std::vector<int>& block, int num_kinds);

  Workload workload_;
  std::uint64_t seed_;
  Rng rng_;
  std::size_t index_ = 0;
  std::vector<int> kind_block_;
  std::vector<int> explore_block_;
  std::vector<int> pool_block_;
  std::vector<int> cold_kind_block_;
  std::vector<int> vr_block_;
  std::vector<int> check_block_;
  std::vector<int> matrix_block_;
  std::vector<std::pair<int, int>> fresh_structures_;
  std::size_t next_fresh_ = 0;
};

/// Base parameters of the des_validation model requests: the
/// detector_matrix / attacker_matrix_v2 base (paper population and
/// detection) with the hot attacker of val_des and rare_event (lambda_c
/// = 1/2000 instead of 1/43200).  At the paper's lambda_c, CI-stopped
/// requests cost ~10x more and a 30 s window holds too few of them for a
/// steady median or the containment rule (see README.md).  The probes of
/// the traced run reuse it.
[[nodiscard]] midas::core::Params des_validation_base();

/// A rate-schedule surge request's protocol-level parameters, as the
/// protocol backend would build them for grid point 0 of `spec`.
[[nodiscard]] midas::sim::ProtocolSimParams protocol_point(
    const midas::core::ExperimentSpec& spec,
    const midas::core::Params& point);

/// Sets max_groups and its partition/merge birth–death tables.
void set_max_groups(midas::core::Params& p, int max_groups);

}  // namespace perfbench
