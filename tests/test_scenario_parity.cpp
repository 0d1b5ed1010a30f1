// Scenario-parity suite for the pluggable detector/attacker models:
// the refactor's contract is that detector=static + attacker=poisson
// IS the legacy behaviour — analytic evaluations exactly, Monte-Carlo
// accumulator states bitwise under unchanged stream keying.  The
// goldens in golden_scenarios.h were captured on the pre-refactor
// tree, so these tests fail on ANY numeric drift the plugin seams
// introduce, not merely on run-to-run nondeterminism.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "core/experiment_presets.h"
#include "core/gcs_spn_model.h"
#include "golden_scenarios.h"
#include "sim/des.h"
#include "util/json.h"

namespace {

using namespace midas;
using core::BackendKind;
using core::ExperimentSpec;

/// The golden raw literals carry the surrounding newlines of the
/// capture heredoc; the payload itself never starts or ends with one.
std::string strip_newlines(std::string s) {
  while (!s.empty() && s.front() == '\n') s.erase(s.begin());
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::string canonical_backends(const char* preset) {
  core::ExperimentService service;
  const auto spec = core::experiment_preset(preset, /*smoke=*/true);
  const auto result = service.run(spec);
  return strip_newlines(result.canonical_json().at("backends").dump());
}

// --- Golden byte-parity: static/poisson reproduces the legacy tree.

TEST(ScenarioParity, Fig2ValSmokeMatchesPreRefactorGoldenBitwise) {
  // Analytic (batched, batch=8) + DES over the m × TIDS smoke grid.
  EXPECT_EQ(canonical_backends("fig2_val"),
            strip_newlines(midas::testing::kGoldenFig2ValSmokeBackends));
}

TEST(ScenarioParity, ValProtocolSmokeMatchesPreRefactorGoldenBitwise) {
  // Analytic + packet-level protocol sim, 12 fixed replications.
  EXPECT_EQ(canonical_backends("val_protocol"),
            strip_newlines(midas::testing::kGoldenValProtocolSmokeBackends));
}

TEST(ScenarioParity, RareEventSmokePlainPayloadsMatchGoldenBitwise) {
  // Analytic + plain DES on the hot-λq 2×2 grid; the vr payloads are
  // cleared because the golden pins what the vr layer must never move.
  core::ExperimentService service;
  auto result =
      service.run(core::experiment_preset("rare_event", /*smoke=*/true));
  ASSERT_FALSE(result.at(BackendKind::Des).vr.empty());
  for (auto& run : result.backends) run.vr.clear();
  EXPECT_EQ(strip_newlines(result.canonical_json().at("backends").dump()),
            strip_newlines(midas::testing::kGoldenRareEventSmokeBackends));
}

TEST(ScenarioParity, DetectorMatrixSmokeMatchesGoldenBitwise) {
  // DES under all four detector models: pins the state-dependent
  // effective-rate paths (entropy, cusum, logistic) that the static
  // goldens above never reach.
  EXPECT_EQ(canonical_backends("detector_matrix"),
            strip_newlines(
                midas::testing::kGoldenDetectorMatrixSmokeBackends));
}

// --- Constant-schedule parity (PR 9): a single identity segment or an
// all-inherit mission phase resolves to the base point bitwise, so the
// backend payloads must still equal the pre-refactor goldens.

std::string canonical_backends_of(const ExperimentSpec& spec) {
  core::ExperimentService service;
  return strip_newlines(
      service.run(spec).canonical_json().at("backends").dump());
}

TEST(ScenarioParity, IdentityScheduleMatchesPreRefactorGoldenBitwise) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  core::ScheduleSegment seg;  // identity multipliers, runs forever
  seg.name = "constant";
  spec.base.schedule.segments = {seg};
  EXPECT_EQ(canonical_backends_of(spec),
            strip_newlines(midas::testing::kGoldenFig2ValSmokeBackends));
}

TEST(ScenarioParity, AllInheritMissionMatchesPreRefactorGoldenBitwise) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  core::MissionPhase phase;  // every override NaN/empty = inherit
  phase.name = "whole-mission";
  spec.base.mission.phases = {phase};
  EXPECT_EQ(canonical_backends_of(spec),
            strip_newlines(midas::testing::kGoldenFig2ValSmokeBackends));
}

// --- Spec round-trip: every model descriptor survives the wire
// byte-stably (17-significant-digit doubles, canonical kind names).

TEST(ScenarioParity, SpecRoundTripsByteStablyForEveryModelDescriptor) {
  for (const auto detector :
       {ids::DetectorKind::Static, ids::DetectorKind::Entropy,
        ids::DetectorKind::Cusum, ids::DetectorKind::Logistic}) {
    for (const auto attacker :
         {sim::AttackerKind::Poisson, sim::AttackerKind::Bursty,
          sim::AttackerKind::Coordinated}) {
      ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
      spec.backends = {BackendKind::Des};
      spec.base.detector.kind = detector;
      spec.base.attacker.kind = attacker;
      // Non-default knobs with non-terminating binary fractions, so a
      // codec that loses precision (or drops a field) fails here.
      spec.base.detector.entropy_weight = 0.3;
      spec.base.detector.cusum_drift = 1.0 / 5400.0;
      spec.base.detector.logistic_bias = -3.7;
      spec.base.attacker.burst_on_s = 901.3;
      spec.base.attacker.batch = 4;

      const std::string first = spec.to_json().dump();
      const auto reparsed =
          ExperimentSpec::from_json(util::Json::parse(first));
      EXPECT_EQ(reparsed.base.detector.kind, detector);
      EXPECT_EQ(reparsed.base.attacker.kind, attacker);
      EXPECT_TRUE(reparsed.base.detector == spec.base.detector);
      EXPECT_TRUE(reparsed.base.attacker == spec.base.attacker);
      EXPECT_EQ(reparsed.to_json().dump(), first)
          << "detector=" << ids::to_string(detector)
          << " attacker=" << sim::to_string(attacker);
    }
  }
}

TEST(ScenarioParity, ScheduleAndMissionRoundTripByteStably) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  spec.backends = {BackendKind::Des};
  // Non-trivial values including the awkward encodings: an infinite
  // final duration and NaN (= inherit) numeric overrides.
  core::ScheduleSegment surge;
  surge.name = "surge";
  surge.duration_s = 3600.5;
  surge.mult.lambda_c = 4.25;
  surge.mult.t_ids = 1.0 / 3.0;
  core::ScheduleSegment tail;
  tail.name = "stand-down";
  spec.base.schedule.segments = {surge, tail};
  core::MissionPhase phase;
  phase.name = "assault";
  phase.duration_s = 1234.75;
  phase.lambda_c = 1.0 / 7200.0;
  phase.detection_shape = "polynomial";
  core::MissionPhase rest;
  rest.name = "recovery";
  spec.base.mission.phases = {phase, rest};

  const std::string first = spec.to_json().dump();
  const auto reparsed = ExperimentSpec::from_json(util::Json::parse(first));
  ASSERT_EQ(reparsed.base.schedule.segments.size(), 2u);
  EXPECT_EQ(reparsed.base.schedule.segments[0].name, "surge");
  EXPECT_EQ(reparsed.base.schedule.segments[0].mult.lambda_c, 4.25);
  EXPECT_TRUE(std::isinf(reparsed.base.schedule.segments[1].duration_s));
  ASSERT_EQ(reparsed.base.mission.phases.size(), 2u);
  EXPECT_TRUE(std::isnan(reparsed.base.mission.phases[0].t_ids));
  EXPECT_EQ(reparsed.base.mission.phases[0].lambda_c, 1.0 / 7200.0);
  EXPECT_EQ(reparsed.base.mission.phases[0].detection_shape, "polynomial");
  EXPECT_EQ(reparsed.to_json().dump(), first);
}

TEST(ScenarioParity, PreScheduleSpecJsonStillParses) {
  // Spec files written before the schedule/mission fields existed carry
  // neither key; the codec must default both to empty (= constant).
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  util::Json j = spec.to_json();
  util::Json base = util::Json::object();
  for (const auto& [key, value] : j.at("base").members()) {
    if (key != "schedule" && key != "mission") base.set(key, value);
  }
  j.set("base", base);
  const auto reparsed = ExperimentSpec::from_json(j);
  EXPECT_TRUE(reparsed.base.schedule.empty());
  EXPECT_TRUE(reparsed.base.mission.empty());
  EXPECT_FALSE(reparsed.base.time_varying());
}

// --- Analytic-compatibility routing: the validator rejects by NAME
// and says where to go instead.

TEST(ScenarioParity, ValidatorRejectsTimeDependentDetectorForAnalytic) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  spec.base.detector.kind = ids::DetectorKind::Cusum;
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.base.detector.kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cusum"), std::string::npos) << msg;
    EXPECT_NE(msg.find("time-dependent"), std::string::npos) << msg;
    EXPECT_NE(msg.find("protocol_sim"), std::string::npos) << msg;
    // PR 9 routing advice: piecewise-constant time dependence has a
    // first-class expression the analytic backend CAN chain.
    EXPECT_NE(msg.find("spec.base.schedule"), std::string::npos) << msg;
  }
}

TEST(ScenarioParity, ValidatorNamesBadScheduleSegmentByPath) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  core::ScheduleSegment seg;
  seg.duration_s = -1.0;
  spec.base.schedule.segments = {seg};
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.base.schedule.segments[0]"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("duration_s"), std::string::npos) << msg;
  }
}

TEST(ScenarioParity, ValidatorNamesBadMissionPhaseByPath) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  core::MissionPhase phase;
  phase.lambda_c = -2.0;
  spec.base.mission.phases = {phase};
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.base.mission.phases[0].lambda_c"),
              std::string::npos)
        << msg;
  }
}

TEST(ScenarioParity, ValidatorRejectsNonPoissonAttackerForAnalytic) {
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  spec.base.attacker.kind = sim::AttackerKind::Bursty;
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.base.attacker.kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bursty"), std::string::npos) << msg;
    EXPECT_NE(msg.find("memoryless"), std::string::npos) << msg;
  }
}

TEST(ScenarioParity, ValidatorRejectsIncompatibleModelAxisLevelByPath) {
  ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
  spec.backends = {BackendKind::Analytic, BackendKind::Des};
  spec.mc = core::experiment_preset("fig2_val", true).mc;
  core::AxisSpec axis;
  axis.param = "detector_model";
  axis.levels = {"static", "logistic"};
  spec.axes.insert(spec.axes.begin(), axis);
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.grid.axes[0].levels[1]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("logistic"), std::string::npos) << msg;
  }
}

TEST(ScenarioParity, EntropyDetectorPassesAnalyticValidation) {
  // Entropy depends on the state only through token counts — the CTMC
  // stays time-homogeneous, so the analytic backend applies.
  ExperimentSpec spec = core::experiment_preset("fig2_val", /*smoke=*/true);
  spec.base.detector.kind = ids::DetectorKind::Entropy;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioParity, NewPresetGridsValidateAndExpandPerModel) {
  for (const char* name : {"detector_matrix", "attacker_matrix_v2"}) {
    const auto spec = core::experiment_preset(name, /*smoke=*/true);
    EXPECT_NO_THROW(spec.validate()) << name;
    const auto grid = spec.grid();
    // model-kinds × one TIDS value in smoke mode.
    const std::size_t kinds =
        std::string(name) == "detector_matrix" ? 4u : 3u;
    EXPECT_EQ(grid.num_points(), kinds) << name;
  }
}

// --- Numeric-range validation with path-named errors.

TEST(ScenarioParity, ValidatorNamesOutOfRangeBaseProbability) {
  ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
  spec.base.p1 = 1.3;
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "ExperimentSpec: spec.base.p1: 1.3 outside [0,1]");
  }
}

TEST(ScenarioParity, ValidatorNamesOutOfRangeAxisValue) {
  ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
  core::AxisSpec axis;
  axis.param = "p1";
  axis.values = {0.01, 1.3};
  spec.axes.insert(spec.axes.begin(), axis);
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.grid.axes[0].values[1]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("1.3 outside [0,1]"), std::string::npos) << msg;
  }
}

TEST(ScenarioParity, ValidatorNamesBadModelKnobThroughSpecPath) {
  ExperimentSpec spec = core::experiment_preset("fig2", /*smoke=*/true);
  spec.base.detector.entropy_weight = 1.5;
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.base.detector.entropy_weight"),
              std::string::npos)
        << msg;
  }
}

// --- SPN constructor backstop: a spec that skips validate() still
// cannot smuggle a time-dependent model into the CTMC.

TEST(ScenarioParity, SpnModelRejectsTimeDependentModelsByName) {
  core::Params p = core::Params::paper_defaults();
  p.n_init = 10;
  p.max_groups = 1;

  p.detector.kind = ids::DetectorKind::Entropy;
  EXPECT_NO_THROW(core::GcsSpnModel{p});

  p.detector.kind = ids::DetectorKind::Logistic;
  try {
    core::GcsSpnModel model(p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("logistic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("time-"), std::string::npos) << msg;
  }

  p.detector.kind = ids::DetectorKind::Static;
  p.attacker.kind = sim::AttackerKind::Coordinated;
  EXPECT_THROW(core::GcsSpnModel{p}, std::invalid_argument);
}

// --- DES determinism per scenario: every model combination is
// reproducible under a fixed seed (the CRN substrate still applies).

TEST(ScenarioParity, DesIsDeterministicPerSeedForEveryModel) {
  core::Params p = core::Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 2;
  p.lambda_c = 1.0 / 1000.0;  // fast attacker → short trajectories
  for (const auto detector :
       {ids::DetectorKind::Static, ids::DetectorKind::Cusum}) {
    for (const auto attacker :
         {sim::AttackerKind::Poisson, sim::AttackerKind::Bursty,
          sim::AttackerKind::Coordinated}) {
      p.detector.kind = detector;
      p.attacker.kind = attacker;
      const auto a = sim::simulate_group(p, /*seed=*/99);
      const auto b = sim::simulate_group(p, /*seed=*/99);
      EXPECT_EQ(a.ttsf, b.ttsf);
      EXPECT_EQ(a.accumulated_cost, b.accumulated_cost);
      EXPECT_EQ(a.compromises, b.compromises);
      const auto c = sim::simulate_group(p, /*seed=*/100);
      // Not a hard guarantee, but with these rates a seed change that
      // does NOT move the trajectory would indicate a frozen stream.
      EXPECT_NE(a.ttsf, c.ttsf)
          << ids::to_string(detector) << "/" << sim::to_string(attacker);
    }
  }
}

}  // namespace
