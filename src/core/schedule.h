// Time-inhomogeneous dynamics as data: piecewise-constant rate
// schedules and multi-phase mission profiles (PR 9).
//
// The paper evaluates steady-parameter curves, but its real question —
// which TIDS/voting configuration survives a mission — is
// time-inhomogeneous: attacker surges, mobility regime shifts and
// scheduled rekeying windows all vary the rates mid-mission.  Two
// first-class Params fields describe that variation:
//
//   * RateSchedule — named, ordered segments of MULTIPLIERS on the
//     scheduled rates (λc, TIDS, λq, partition/merge).  A schedule
//     scales the base point without re-stating it, so one grid axis
//     (say t_ids) composes with one surge profile.
//   * MissionProfile — named, ordered phases of Params DELTAS
//     (absolute overrides; NaN / empty string = inherit the base
//     value), for regime shifts that are not mere scalings.
//
// Both are piecewise-constant: within a segment/phase the process is
// the familiar time-homogeneous chain, so every backend handles a
// boundary the same way — resolve the effective constant Params per
// segment (core::resolve_timeline) and chain:
//   analytic      core::MissionAnalyzer chains spn::ReliabilityOde
//                 Crank–Nicolson integrations across boundaries
//                 (mission.h)
//   des           Gillespie samples truncate at the next breakpoint and
//                 resample (memoryless restart; sim/des.cpp)
//   protocol_sim  per-tick effective rates (sim/protocol_sim.cpp)
//
// An empty schedule + empty mission IS the legacy constant model, and a
// constant schedule (single segment, identity multipliers) reproduces
// it bitwise: ×1.0 is exact in IEEE arithmetic and every backend keeps
// its legacy draw/solve sequence when only one segment resolves.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace midas::core {

/// Multiplicative factors applied to the scheduled rates of a Params.
/// 1.0 everywhere = identity (exact: x·1.0 == x in IEEE arithmetic).
struct RateMultipliers {
  double lambda_c = 1.0;   ///< attacker base compromise rate λc
  double t_ids = 1.0;      ///< detection interval TIDS (>1 = slower IDS)
  double lambda_q = 1.0;   ///< per-node data request rate λq
  double partition = 1.0;  ///< every partition_rates[g]
  double merge = 1.0;      ///< every merge_rates[g]

  [[nodiscard]] bool identity() const noexcept {
    return lambda_c == 1.0 && t_ids == 1.0 && lambda_q == 1.0 &&
           partition == 1.0 && merge == 1.0;
  }
};

/// One named schedule segment.  Segments are laid end to end from t=0;
/// the LAST segment extends forever (duration_s may be infinity there,
/// and only there).
struct ScheduleSegment {
  std::string name;  ///< breakpoint label ("surge", "stand-down", ...)
  double duration_s = std::numeric_limits<double>::infinity();
  RateMultipliers mult;
};

/// Piecewise-constant time-varying multipliers with named breakpoints.
/// Empty = constant (no time variation).
struct RateSchedule {
  std::vector<ScheduleSegment> segments;

  [[nodiscard]] bool empty() const noexcept { return segments.empty(); }

  /// Throws std::invalid_argument with "<prefix>.segments[i].<field>"
  /// naming: durations must be positive, finite except for the last
  /// segment; multipliers finite and >= 0 (t_ids strictly > 0).
  void validate(const std::string& prefix = "schedule") const;

  /// Interior breakpoints: the start times of segments 1..n-1, strictly
  /// ascending.  Empty for a constant (0- or 1-segment) schedule.
  [[nodiscard]] std::vector<double> breakpoints() const;

  /// The segment active at time t >= 0 (the last one for all t past the
  /// final breakpoint).  Requires !empty().
  [[nodiscard]] const ScheduleSegment& at(double t) const;
};

/// One mission phase: a duration plus ABSOLUTE overrides of selected
/// Params fields.  NaN (numeric) / empty string (shape) = inherit the
/// base value.  Like schedule segments, phases run end to end from t=0
/// and the last phase extends forever.
struct MissionPhase {
  std::string name;
  double duration_s = std::numeric_limits<double>::infinity();
  double t_ids = std::numeric_limits<double>::quiet_NaN();
  double lambda_c = std::numeric_limits<double>::quiet_NaN();
  double lambda_q = std::numeric_limits<double>::quiet_NaN();
  double p1 = std::numeric_limits<double>::quiet_NaN();
  double p2 = std::numeric_limits<double>::quiet_NaN();
  std::string detection_shape;  ///< "logarithmic"|"linear"|"polynomial"
  std::string attacker_shape;
};

/// Ordered mission phases.  Empty = single implicit phase (the base
/// Params for all time).  Composes with RateSchedule: at any instant
/// the effective point is base + phase overrides, then multipliers.
struct MissionProfile {
  std::vector<MissionPhase> phases;

  [[nodiscard]] bool empty() const noexcept { return phases.empty(); }

  /// Throws std::invalid_argument with "<prefix>.phases[i].<field>"
  /// naming; override ranges are checked here, full cross-field
  /// consistency by Params::validate on each resolved segment.
  void validate(const std::string& prefix = "mission") const;

  /// Interior breakpoints (starts of phases 1..n-1), strictly ascending.
  [[nodiscard]] std::vector<double> breakpoints() const;

  /// The phase active at time t >= 0.  Requires !empty().
  [[nodiscard]] const MissionPhase& at(double t) const;
};

}  // namespace midas::core
