#include "ids/detector_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace midas::ids {
namespace {

[[nodiscard]] double clamp01(double x) {
  return std::clamp(x, 0.0, 1.0);
}

/// Binary entropy H2(f) in bits; 0 at the endpoints.
[[nodiscard]] double binary_entropy(double f) {
  if (f <= 0.0 || f >= 1.0) return 0.0;
  return -f * std::log2(f) - (1.0 - f) * std::log2(1.0 - f);
}

[[nodiscard]] double sigmoid(double x) {
  return 1.0 / (1.0 + std::exp(-x));
}

[[nodiscard]] double compromised_fraction(const DetectorState& s) {
  if (s.population <= 0) return 0.0;
  return static_cast<double>(s.compromised) /
         static_cast<double>(s.population);
}

}  // namespace

bool DetectorModel::cusum_alarmed(const DetectorState& s) const {
  const double evidence =
      cusum_gain * static_cast<double>(s.compromised + s.evicted);
  const double score = std::max(0.0, evidence - cusum_drift * s.elapsed_s);
  return score > cusum_threshold;
}

EffectiveErrorRates DetectorModel::cusum_level(double p1, double p2,
                                               bool alarmed) const {
  if (!alarmed) return {clamp01(p1), clamp01(p2)};
  return {clamp01(p1 * cusum_alarm_factor), clamp01(p2 / cusum_alarm_factor)};
}

EffectiveErrorRates DetectorModel::effective(double p1, double p2,
                                             const DetectorState& s) const {
  switch (kind) {
    case DetectorKind::Static:
      // Exactly the base constants — no arithmetic, so the static
      // plugin path stays bitwise the legacy hard-coded one.
      return {p1, p2};
    case DetectorKind::Entropy: {
      const double h = binary_entropy(compromised_fraction(s));
      const double w = entropy_weight * h;
      return {clamp01(p1 + w * (1.0 - p1)), clamp01(p2 + w * (1.0 - p2))};
    }
    case DetectorKind::Cusum:
      return cusum_level(p1, p2, cusum_alarmed(s));
    case DetectorKind::Logistic: {
      const double q = sigmoid(logistic_bias +
                               logistic_compromise_weight *
                                   compromised_fraction(s) +
                               logistic_time_weight * s.elapsed_s / 3600.0);
      return {clamp01(p1 * (1.0 - q)), clamp01(p2 + q * (1.0 - p2))};
    }
  }
  throw std::invalid_argument("DetectorModel: unknown kind");
}

void DetectorModel::validate() const {
  if (entropy_weight < 0.0 || entropy_weight > 1.0) {
    throw std::invalid_argument("detector.entropy_weight: " +
                                std::to_string(entropy_weight) +
                                " outside [0,1]");
  }
  if (cusum_gain <= 0.0) {
    throw std::invalid_argument("detector.cusum_gain: " +
                                std::to_string(cusum_gain) +
                                " must be > 0");
  }
  if (cusum_drift < 0.0) {
    throw std::invalid_argument("detector.cusum_drift: " +
                                std::to_string(cusum_drift) +
                                " must be >= 0");
  }
  if (cusum_threshold < 0.0) {
    throw std::invalid_argument("detector.cusum_threshold: " +
                                std::to_string(cusum_threshold) +
                                " must be >= 0");
  }
  if (cusum_alarm_factor <= 0.0 || cusum_alarm_factor > 1.0) {
    throw std::invalid_argument("detector.cusum_alarm_factor: " +
                                std::to_string(cusum_alarm_factor) +
                                " outside (0,1]");
  }
  if (!std::isfinite(logistic_bias) ||
      !std::isfinite(logistic_compromise_weight) ||
      !std::isfinite(logistic_time_weight)) {
    throw std::invalid_argument(
        "detector.logistic_*: coefficients must be finite");
  }
}

const char* to_string(DetectorKind kind) noexcept {
  switch (kind) {
    case DetectorKind::Static:
      return "static";
    case DetectorKind::Entropy:
      return "entropy";
    case DetectorKind::Cusum:
      return "cusum";
    case DetectorKind::Logistic:
      return "logistic";
  }
  return "static";
}

DetectorKind detector_kind_from_string(const std::string& name) {
  if (name == "static") return DetectorKind::Static;
  if (name == "entropy") return DetectorKind::Entropy;
  if (name == "cusum") return DetectorKind::Cusum;
  if (name == "logistic") return DetectorKind::Logistic;
  throw std::invalid_argument(
      "unknown detector kind \"" + name +
      "\" (expected static|entropy|cusum|logistic)");
}

}  // namespace midas::ids
