// Shard plans and tiling: how a grid is sliced across processes, how an
// orphaned remainder is re-split, which shards a bad tiling names, and
// explicit uneven slices merging back bitwise through the service.
// Policy-planned slices are covered in test_experiment.cpp
// (ExperimentService.ShardedRunsMergeBitwise...).
#include "core/shard.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sweep_engine.h"

namespace {

using namespace midas;
using core::Params;
using core::ShardPlan;
using core::ShardRange;

Params small_params() {
  Params p = Params::paper_defaults();
  p.n_init = 20;
  p.max_groups = 1;
  return p;
}

/// A structure-uniform m × TIDS grid (6 points).
core::GridSpec small_grid() {
  core::GridSpec spec;
  spec.num_voters({3, 5}).t_ids({30, 120, 480});
  return spec;
}

TEST(ShardPlan, ContiguousIsBalancedAndTiles) {
  const auto plan = ShardPlan::contiguous(10, 3);
  ASSERT_EQ(plan.num_shards(), 3u);
  EXPECT_EQ(plan.range(0), (ShardRange{0, 4}));
  EXPECT_EQ(plan.range(1), (ShardRange{4, 7}));
  EXPECT_EQ(plan.range(2), (ShardRange{7, 10}));
  core::validate_shard_tiling(10, plan.ranges());

  // One shard takes everything; more shards than points leaves the
  // trailing shards empty but still tiling.
  EXPECT_EQ(ShardPlan::contiguous(5, 1).range(0), (ShardRange{0, 5}));
  const auto wide = ShardPlan::contiguous(2, 4);
  EXPECT_EQ(wide.range(0), (ShardRange{0, 1}));
  EXPECT_EQ(wide.range(1), (ShardRange{1, 2}));
  EXPECT_TRUE(wide.range(2).empty());
  EXPECT_TRUE(wide.range(3).empty());
  core::validate_shard_tiling(2, wide.ranges());

  EXPECT_THROW((void)ShardPlan::contiguous(4, 0), std::invalid_argument);
  EXPECT_THROW((void)plan.range(3), std::out_of_range);
}

TEST(ShardPlan, ByStructureKeepsStructureRunsWhole) {
  // n_init is structural: the grid's row-major order (n_init slowest)
  // yields one run of equal structure_key per n_init level.  Shard
  // boundaries must fall only between runs, so each structure is
  // explored by exactly one shard.
  core::GridSpec spec;
  spec.axis("n_init", std::vector<double>{20, 24},
            [](Params& p, double v) {
              p.n_init = static_cast<std::int32_t>(v);
            })
      .t_ids({30, 120, 480});
  const Params base = small_params();

  const auto plan = ShardPlan::by_structure(spec, base, 2);
  ASSERT_EQ(plan.num_shards(), 2u);
  EXPECT_EQ(plan.range(0), (ShardRange{0, 3}));
  EXPECT_EQ(plan.range(1), (ShardRange{3, 6}));
  core::validate_shard_tiling(6, plan.ranges());

  // More shards than runs: the extra shards are empty, runs stay whole.
  const auto wide = ShardPlan::by_structure(spec, base, 4);
  EXPECT_EQ(wide.range(0), (ShardRange{0, 3}));
  EXPECT_EQ(wide.range(1), (ShardRange{3, 6}));
  EXPECT_TRUE(wide.range(2).empty());
  EXPECT_TRUE(wide.range(3).empty());
  core::validate_shard_tiling(6, wide.ranges());

  // A structure-uniform grid (paper default: every m shares the
  // structure) collapses into one run owned by shard 0.
  const auto uniform = ShardPlan::by_structure(small_grid(), base, 2);
  EXPECT_EQ(uniform.range(0), (ShardRange{0, 6}));
  EXPECT_TRUE(uniform.range(1).empty());

  // Each shard pays exactly one exploration for the structures it owns.
  const auto points = spec.expand(base);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const auto r = plan.range(s);
    core::SweepEngine engine;
    (void)engine.evaluate(std::span(points).subspan(r.begin, r.size()));
    EXPECT_EQ(engine.stats().explorations, 1u) << "shard " << s;
  }
}

TEST(ShardPlan, ReplanSplitsTheUncompletedRemainderDeterministically) {
  // One orphaned lease fanned across three idle survivors: the pieces
  // tile the original range in order, no point lost or duplicated.
  const std::vector<ShardRange> orphan = {{10, 22}};
  const auto pieces = ShardPlan::replan(orphan, 3);
  ASSERT_EQ(pieces.size(), 3u);
  std::size_t cursor = 10;
  for (const auto& r : pieces) {
    EXPECT_EQ(r.begin, cursor);
    EXPECT_GT(r.end, r.begin);
    cursor = r.end;
  }
  EXPECT_EQ(cursor, 22u);

  // More inputs than pieces: returned sorted, empties dropped, intact.
  const std::vector<ShardRange> many = {{8, 9}, {0, 4}, {4, 4}, {5, 8}};
  const auto kept = ShardPlan::replan(many, 2);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[1].begin, 5u);
  EXPECT_EQ(kept[2].begin, 8u);

  // Never splits below one point per piece.
  const std::vector<ShardRange> tiny = {{3, 5}};
  EXPECT_EQ(ShardPlan::replan(tiny, 8).size(), 2u);

  // Overlapping inputs and zero pieces are programmer errors.
  const std::vector<ShardRange> overlap = {{0, 6}, {4, 9}};
  EXPECT_THROW((void)ShardPlan::replan(overlap, 2), std::invalid_argument);
  EXPECT_THROW((void)ShardPlan::replan(orphan, 0), std::invalid_argument);
}

/// small_grid() as a declarative spec over the small_params() base.
core::ExperimentSpec small_experiment() {
  core::ExperimentSpec spec;
  spec.name = "shard";
  spec.mode = "unit";
  spec.base = small_params();
  core::AxisSpec m;
  m.param = "num_voters";
  m.values = {3, 5};
  core::AxisSpec t;
  t.param = "t_ids";
  t.values = {30, 120, 480};
  spec.axes = {std::move(m), std::move(t)};
  return spec;
}

/// The slice [begin, end) of `spec`, labelled shard `index` of `count`.
core::ExperimentSpec explicit_slice(core::ExperimentSpec spec,
                                    ShardRange range, std::size_t index,
                                    std::size_t count) {
  spec.shard.policy = core::ShardSpec::Policy::Explicit;
  spec.shard.range = range;
  spec.shard.shard_index = index;
  spec.shard.num_shards = count;
  return spec;
}

/// Canonical JSON of a merged result with its merge provenance reset to
/// the single-process form, for byte comparison against a whole run.
std::string as_single_process(core::ExperimentResult merged,
                              const core::ExperimentResult& whole) {
  merged.num_shards = 1;
  merged.shard_index = 0;
  merged.shard_policy = whole.shard_policy;
  return merged.canonical_json().dump_compact();
}

TEST(ShardMerge, McMergesBitwiseUnderEveryStreamMode) {
  core::ExperimentSpec spec = small_experiment();
  spec.backends = {core::BackendKind::Analytic, core::BackendKind::Des};
  spec.mc.base_seed = 0xFACADE;
  spec.mc.rel_ci_target = 0.15;
  spec.mc.min_replications = 32;
  spec.mc.block = 32;
  spec.mc.survival_horizons = {1e4, 1e6};

  // CRN (substreams keyed by replication only), independent streams
  // (keyed by GLOBAL point index via point_stream_offset), and
  // antithetic pairs layered on CRN: in every mode an uneven explicit
  // split must reproduce the single-process run bit-for-bit.
  struct Mode {
    const char* name;
    bool crn;
    bool antithetic;
  };
  for (const Mode mode : {Mode{"crn", true, false},
                          Mode{"independent", false, false},
                          Mode{"antithetic", true, true}}) {
    SCOPED_TRACE(mode.name);
    core::ExperimentSpec moded = spec;
    moded.mc.crn = mode.crn;
    moded.mc.antithetic = mode.antithetic;

    core::ExperimentService single;
    const auto whole = single.run(moded);

    const std::vector<ShardRange> ranges{{0, 2}, {2, 3}, {3, 6}};
    std::vector<core::ExperimentResult> parts;
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      core::ExperimentService worker;
      parts.push_back(
          worker.run(explicit_slice(moded, ranges[s], s, ranges.size())));
    }
    const auto merged = core::merge_experiment_results(parts);

    const auto& wd = whole.at(core::BackendKind::Des);
    const auto& md = merged.at(core::BackendKind::Des);
    ASSERT_EQ(wd.mc.size(), 6u);
    ASSERT_EQ(md.mc.size(), wd.mc.size());
    for (std::size_t i = 0; i < wd.mc.size(); ++i) {
      EXPECT_GE(wd.mc[i].replications, 32u) << i;
      EXPECT_EQ(md.mc[i].ttsf_state.mean, wd.mc[i].ttsf_state.mean) << i;
      EXPECT_EQ(md.mc[i].ttsf_state.m2, wd.mc[i].ttsf_state.m2) << i;
      EXPECT_EQ(md.mc[i].replications, wd.mc[i].replications) << i;
    }
    EXPECT_EQ(as_single_process(merged, whole),
              whole.canonical_json().dump_compact());
  }
}

TEST(ShardMerge, ValidatesTilingAndPayloads) {
  core::ExperimentSpec spec = small_experiment();  // 6 points
  spec.backends = {core::BackendKind::Analytic};
  core::ExperimentService service;
  const auto slice = [&](ShardRange range, std::size_t index) {
    return service.run(explicit_slice(spec, range, index, 3));
  };

  const auto a = slice({0, 3}, 0);
  const auto b = slice({3, 6}, 1);

  // Gap: [0,3) + [4,6).
  {
    const std::vector<core::ExperimentResult> gap{a, slice({4, 6}, 1)};
    EXPECT_THROW((void)core::merge_experiment_results(gap),
                 std::invalid_argument);
  }
  // Overlap: [0,3) + [2,6).
  {
    const std::vector<core::ExperimentResult> lap{a, slice({2, 6}, 1)};
    EXPECT_THROW((void)core::merge_experiment_results(lap),
                 std::invalid_argument);
  }
  // Payload size inconsistent with the range.
  {
    auto broken = a;
    broken.backends[0].evals.pop_back();
    const std::vector<core::ExperimentResult> bad{broken, b};
    EXPECT_THROW((void)core::merge_experiment_results(bad),
                 std::invalid_argument);
  }
  // An out-of-grid slice is rejected before anything runs.
  EXPECT_THROW((void)slice({4, 9}, 1), std::invalid_argument);

  // The happy path including an empty shard reproduces the whole grid.
  const std::vector<core::ExperimentResult> full{a, b, slice({6, 6}, 2)};
  const auto merged = core::merge_experiment_results(full);
  EXPECT_EQ(merged.at(core::BackendKind::Analytic).evals.size(), 6u);
  const auto whole = service.run(spec);
  EXPECT_EQ(as_single_process(merged, whole),
            whole.canonical_json().dump_compact());
}

TEST(ShardTiling, ErrorsNameTheGuiltyShardIndices) {
  // With labels attached (as merge_experiment_results passes them),
  // errors must name the caller's shard indices (7 and 3 here), not
  // list positions.
  const std::vector<std::size_t> labels = {7, 3};
  const auto error_of = [&](const std::vector<ShardRange>& ranges) {
    try {
      core::validate_shard_tiling(10, ranges, labels);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected the tiling to be rejected";
    return std::string();
  };

  // Gap in the middle: names the uncovered run and both neighbours.
  std::string what = error_of({{0, 4}, {6, 10}});
  EXPECT_NE(what.find("[4, 6)"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 7"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;

  // Overlap: names both shards and the exact overlapping points.
  what = error_of({{0, 6}, {4, 10}});
  EXPECT_NE(what.find("overlap"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 7"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;
  EXPECT_NE(what.find("[4, 6)"), std::string::npos) << what;

  // Tail gap: names the last shard that fell short.
  what = error_of({{0, 4}, {4, 8}});
  EXPECT_NE(what.find("[8, 10)"), std::string::npos) << what;
  EXPECT_NE(what.find("shard 3"), std::string::npos) << what;

  // A healthy tiling passes with labels attached.
  const std::vector<ShardRange> good = {{0, 4}, {4, 10}};
  EXPECT_NO_THROW(core::validate_shard_tiling(10, good, labels));
}

}  // namespace
