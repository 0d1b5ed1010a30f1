// Pluggable host-IDS error models: each detector turns the paper's
// constant per-node misclassification probabilities (p1 = false
// negative, p2 = false positive) into EFFECTIVE probabilities that may
// react to the system state — how compromised the group currently is
// and how long the mission has run.  The detector is a descriptor
// (kind + knobs), not an object with hidden state: every layer passes
// the observable `DetectorState` in explicitly, so the analytic SPN,
// the DES and the protocol simulator all evaluate the same pure
// function and agree by construction.
//
//   static    today's constants — effective (p1,p2) == (p1,p2).
//   entropy   alertness scales with the binary entropy of the
//             compromised fraction f = compromised/population: mixed
//             populations are the hardest to classify, so both error
//             probabilities are inflated toward 1 by weight·H2(f)
//             (Sen's clustered-IDS anomaly detectors degrade exactly
//             when traffic is a blend of normal and hostile).  Depends
//             on the state only through (compromised, population), so
//             the CTMC stays time-homogeneous: analytic-compatible.
//   cusum     a CUSUM change detector accumulates evidence
//             S = max(0, gain·(compromised+evicted) − drift·elapsed);
//             once S crosses `threshold` the IDS is alarmed and trades
//             false negatives for false positives (p1 shrinks by
//             alarm_factor, p2 grows by 1/alarm_factor, clamped).
//             Elapsed-time dependence makes the chain
//             time-inhomogeneous: NOT analytic-compatible.
//   logistic  a logistic-regression suspicion score over the
//             compromised fraction and mission time,
//             q = sigmoid(bias + w_c·f + w_t·elapsed/3600); suspicion
//             suppresses misses (p1·(1−q)) and induces false alarms
//             (p2 + q·(1−p2)).  Time-dependent: NOT
//             analytic-compatible.
#pragma once

#include <cstdint>
#include <string>

namespace midas::ids {

enum class DetectorKind : std::uint8_t { Static, Entropy, Cusum, Logistic };

/// The observable system state a detector may react to.  All layers
/// can produce it: the SPN from a marking (compromised = UCm, evicted
/// = DCm, population = Tm+UCm), the DES from its token counts, the
/// protocol sim from its node roster.
struct DetectorState {
  std::int64_t compromised = 0;  // undetected-compromised members
  std::int64_t evicted = 0;      // detected-and-evicted members
  std::int64_t population = 0;   // current live members (Tm + UCm)
  double elapsed_s = 0.0;        // mission time so far
};

/// Effective per-node misclassification probabilities, both in [0,1].
struct EffectiveErrorRates {
  double p1 = 0.0;  // P[compromised node classified good]
  double p2 = 0.0;  // P[good node classified compromised]
};

struct DetectorModel {
  DetectorKind kind = DetectorKind::Static;

  // entropy: inflation weight in [0,1] — 0 degenerates to static.
  double entropy_weight = 0.5;

  // cusum: S = max(0, gain·(compromised+evicted) − drift·elapsed_s);
  // alarmed iff S > threshold.  alarm_factor in (0,1] scales p1 down
  // and p2 up once alarmed; 1 degenerates to static.
  double cusum_gain = 1.0;
  double cusum_drift = 1.0 / 7200.0;
  double cusum_threshold = 3.0;
  double cusum_alarm_factor = 0.25;

  // logistic: q = sigmoid(bias + compromise_weight·f +
  // time_weight·elapsed_s/3600).
  double logistic_bias = -4.0;
  double logistic_compromise_weight = 12.0;
  double logistic_time_weight = 0.25;

  /// Effective (p1,p2) for base probabilities (p1,p2) in state `s`.
  /// Pure; clamped to [0,1].  Static returns (p1,p2) EXACTLY (no
  /// arithmetic), so the static plugin path is bitwise the legacy one.
  [[nodiscard]] EffectiveErrorRates effective(double p1, double p2,
                                              const DetectorState& s) const;

  /// CUSUM alarm predicate (exposed for tests / instrumentation).
  [[nodiscard]] bool cusum_alarmed(const DetectorState& s) const;

  /// Cusum's effective (p1,p2) when off or alarmed — the only two
  /// values effective() can return for it, so callers may tabulate
  /// Equation 1 at both and select by cusum_alarmed().
  [[nodiscard]] EffectiveErrorRates cusum_level(double p1, double p2,
                                                bool alarmed) const;

  /// True when effective() can depend on the state at all.
  [[nodiscard]] bool state_dependent() const noexcept {
    return kind != DetectorKind::Static;
  }

  /// True when the effective rates depend on the state only through
  /// marking-expressible quantities (token counts), so the SPN's CTMC
  /// stays time-homogeneous and the analytic backend applies.  Cusum
  /// and logistic read elapsed time — they need DES/protocol-sim.
  [[nodiscard]] bool analytic_compatible() const noexcept {
    return kind != DetectorKind::Cusum && kind != DetectorKind::Logistic;
  }

  /// Throws std::invalid_argument naming the offending field as
  /// "detector.<field>: ...".
  void validate() const;

  [[nodiscard]] bool operator==(const DetectorModel&) const = default;
};

/// Canonical lower-case name ("static", "entropy", "cusum", "logistic").
[[nodiscard]] const char* to_string(DetectorKind kind) noexcept;

/// Inverse of to_string; throws std::invalid_argument listing the
/// valid names.
[[nodiscard]] DetectorKind detector_kind_from_string(const std::string& name);

}  // namespace midas::ids
