#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>

#include "core/gcs_spn_model.h"
#include "core/mission.h"
#include "core/sweep_engine.h"
#include "sim/des.h"
#include "sim/mc_engine.h"
#include "sim/protocol_sim.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "spn/absorbing.h"
#include "spn/reachability.h"
#include "util/arena.h"
#include "util/json.h"
#include "vr/engine.h"

namespace perfbench {

namespace core = midas::core;
namespace sim = midas::sim;
namespace spn = midas::spn;

std::int32_t Tracer::begin(const char* name, std::uint32_t request,
                           std::int32_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  cpu_start_.push_back(cpu_now());
  s.start_s = wall_now();
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = wall_now();
  s.cpu_s = cpu_now() - cpu_start_[static_cast<std::size_t>(id)];
}

void Tracer::print_self_times(std::ostream& os) const {
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = spans_[i].end_s - spans_[i].start_s;
    ++r.calls;
    r.total += d;
    r.self += d - child[i];
  }
  char line[160];
  std::snprintf(line, sizeof line, "%-22s %8s %12s %12s\n", "span", "calls",
                "total_s", "self_s");
  os << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-22s %8zu %12.4f %12.4f\n",
                  name.c_str(), r.calls, r.total, r.self);
    os << line;
  }
}

std::vector<Metric> per_layer_metric_names() {
  return {
      {"svc.parse_validate_ms", 0, "ms"},
      {"svc.plan_ms", 0, "ms"},
      {"svc.serialise_ms", 0, "ms"},
      {"svc.result_kb", 0, "kB"},
      {"analytic.evaluate_s", 0, "s"},
      {"analytic.cpu_util", 0, "ratio"},
      {"analytic.cache_hit_ratio", 0, "ratio"},
      {"analytic.explorations", 0, "count"},
      {"analytic.states_explored", 0, "count"},
      {"analytic.explore_ms", 0, "ms"},
      {"analytic.analyzer_ms", 0, "ms"},
      {"analytic.rerate_us_per_point", 0, "us"},
      {"analytic.solve_rewards_us_per_point", 0, "us"},
      {"analytic.states_per_point", 0, "count"},
      {"mission.ms_per_point", 0, "ms"},
      {"mission.segments_per_point", 0, "count"},
      {"des.run_s", 0, "s"},
      {"des.trajectories_per_s", 0, "1/s"},
      {"des.cpu_util", 0, "ratio"},
      {"des.reps_per_point", 0, "count"},
      {"des.converged_frac", 0, "ratio"},
      {"des.blocks", 0, "count"},
      {"des.rounds", 0, "count"},
      {"des.context_ms", 0, "ms"},
      {"des.events_per_trajectory", 0, "count"},
      {"des.trajectory_us.static", 0, "us"},
      {"des.trajectory_us.entropy", 0, "us"},
      {"des.trajectory_us.cusum", 0, "us"},
      {"des.trajectory_us.logistic", 0, "us"},
      {"vr.run_s", 0, "s"},
      {"vr.points", 0, "count"},
      {"protocol.run_s", 0, "s"},
      {"protocol.trajectories_per_s", 0, "1/s"},
      {"protocol.cpu_util", 0, "ratio"},
      {"protocol.trajectory_ms", 0, "ms"},
      {"protocol.vote_messages_per_trajectory", 0, "count"},
      {"protocol.rekeys_per_trajectory", 0, "count"},
      {"protocol.timeouts", 0, "count"},
      {"trace.overhead_frac", 0, "ratio"},
  };
}

namespace {

/// Layer tallies over the replay (spans carry the times).
struct Tally {
  std::size_t requests = 0;
  double result_bytes = 0.0;
  std::size_t structure_lookups = 0;
  std::size_t explorations = 0;
  std::size_t states_explored = 0;
  std::size_t mission_points = 0;
  std::size_t mission_segments = 0;
  std::size_t des_calls = 0;
  std::size_t des_points = 0;
  std::size_t des_converged = 0;
  std::size_t des_reps = 0;
  std::size_t des_blocks = 0;
  std::size_t des_rounds = 0;
  std::size_t vr_points = 0;
  std::size_t protocol_reps = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::size_t resolved_threads(const core::ExperimentService& service) {
  const std::size_t t = service.options().threads;
  return t != 0 ? t : default_threads();
}

/// The service's shard-invariant MC options for a request.
sim::McOptions effective_mc(const core::ExperimentSpec& spec,
                            core::ShardRange range, std::size_t threads) {
  sim::McOptions mc = spec.mc;
  mc.point_stream_offset += range.begin;
  if (mc.threads == 0) mc.threads = threads;
  return mc;
}

/// One request through the layer entry points ExperimentService::run
/// calls, one span per call.  Returns the canonical result text.
std::string replay(core::ExperimentService& service, Tracer& tracer,
                   Tally& tally, std::uint32_t request,
                   const std::string& spec_text) {
  core::ExperimentResult result;
  {
    ScopedSpan root(tracer, "request", request);
    const std::int32_t parent = root.id();
    core::ExperimentSpec spec;
    {
      ScopedSpan s(tracer, "svc.parse_validate", request, parent);
      spec = core::ExperimentSpec::from_json(
          midas::util::Json::parse(spec_text));
      spec.validate();
    }
    core::GridSpec grid;
    core::ShardRange range;
    std::vector<core::Params> points;
    {
      ScopedSpan s(tracer, "svc.plan", request, parent);
      grid = spec.grid();
      range = spec.resolve_range(grid);
      points.reserve(range.size());
      for (std::size_t i = range.begin; i < range.end; ++i) {
        points.push_back(grid.point(spec.base, i));
      }
    }
    result.spec = spec;
    result.range = range;
    const bool all = spec.shard.policy == core::ShardSpec::Policy::All;
    result.num_shards = all ? 1 : spec.shard.num_shards;
    result.shard_index = all ? 0 : spec.shard.shard_index;
    result.shard_policy = core::to_string(spec.shard.policy);

    const std::size_t threads = service.options().threads;
    for (const core::BackendKind kind : spec.backends) {
      core::BackendRun run;
      run.kind = kind;
      if (kind == core::BackendKind::Analytic) {
        const bool timeline = spec.base.time_varying() &&
                              core::resolve_timeline(spec.base).size() != 1;
        if (!timeline) {
          std::vector<core::Params> constant;
          if (spec.base.time_varying()) {
            for (const auto& p : points) {
              constant.push_back(core::resolve_timeline(p).front().params);
            }
          }
          const auto& pts = spec.base.time_varying() ? constant : points;
          auto& engine = service.sweep_engine();
          const auto before = engine.stats();
          {
            ScopedSpan s(tracer, "analytic.evaluate", request, parent);
            run.evals = engine.evaluate(pts, spec.analytic.batch);
          }
          std::set<std::string> keys;
          for (const auto& p : pts) keys.insert(core::structure_key(p));
          tally.structure_lookups += keys.size();
          tally.explorations +=
              engine.stats().explorations - before.explorations;
          tally.states_explored +=
              engine.stats().states_explored - before.states_explored;
        } else {
          std::vector<std::size_t> segments(points.size(), 0);
          run.evals.resize(points.size());
          {
            ScopedSpan s(tracer, "mission.evaluate", request, parent);
            sim::parallel_for(
                points.size(),
                [&](std::size_t i) {
                  const core::MissionAnalyzer analyzer(points[i]);
                  segments[i] = analyzer.timeline().size();
                  run.evals[i] = analyzer.evaluate();
                },
                threads);
          }
          tally.mission_points += points.size();
          for (const std::size_t n : segments) tally.mission_segments += n;
        }
      } else if (kind == core::BackendKind::Des) {
        const sim::McOptions mc = effective_mc(spec, range, threads);
        {
          ScopedSpan s(tracer, "des.run_des", request, parent);
          sim::MonteCarloEngine engine(mc);
          run.mc = engine.run_des(points);
          run.mc_stats = engine.stats();
        }
        if (spec.vr.any()) {
          ScopedSpan s(tracer, "vr.run_vr", request, parent);
          run.vr = midas::vr::run_vr(spec.vr, mc, points);
          tally.vr_points += points.size();
        }
        ++tally.des_calls;
        tally.des_points += points.size();
        tally.des_reps += run.mc_stats.replications;
        tally.des_blocks += run.mc_stats.blocks;
        tally.des_rounds += run.mc_stats.rounds;
        for (const auto& r : run.mc) tally.des_converged += r.converged ? 1 : 0;
      } else {
        std::vector<sim::ProtocolSimParams> sim_points;
        sim_points.reserve(points.size());
        for (const auto& p : points) {
          sim_points.push_back(protocol_point(spec, p));
        }
        ScopedSpan s(tracer, "protocol.run_protocol", request, parent);
        sim::MonteCarloEngine engine(effective_mc(spec, range, threads));
        run.mc = engine.run_protocol(sim_points);
        run.mc_stats = engine.stats();
        tally.protocol_reps += run.mc_stats.replications;
      }
      result.backends.push_back(std::move(run));
    }
    ScopedSpan s(tracer, "svc.serialise", request, parent);
    tally.result_bytes +=
        static_cast<double>(result.to_json().dump_compact().size());
  }
  ++tally.requests;
  return canonical_text(result);
}

/// Layer totals over every span of one name.
struct SpanSum {
  double wall = 0.0;
  double cpu = 0.0;
};

std::map<std::string, SpanSum> sum_spans(const Tracer& tracer) {
  std::map<std::string, SpanSum> out;
  for (const Span& s : tracer.spans()) {
    auto& sum = out[s.name];
    sum.wall += s.end_s - s.start_s;
    sum.cpu += s.cpu_s;
  }
  return out;
}

// --- Probes: single-threaded replays of a sample through one layer. ---

void analytic_probes(std::uint64_t seed, std::map<std::string, double>& m) {
  RequestStream stream(Workload::AnalyticSweep, seed);
  std::vector<double> explore_ms, analyzer_ms, rerate_us, solve_us, states;
  constexpr std::size_t kBatch = 8;
  for (int sample = 0; sample < 3; ++sample) {
    const core::ExperimentSpec spec = stream.next();
    const core::GridSpec grid = spec.grid();
    std::deque<core::GcsSpnModel> models;
    for (std::size_t i = 0; i < kBatch; ++i) {
      models.emplace_back(grid.point(spec.base, i));
    }
    double t0 = wall_now();
    const spn::ReachabilityGraph graph = spn::explore(models.front().net());
    explore_ms.push_back(1e3 * (wall_now() - t0));
    t0 = wall_now();
    const spn::AbsorbingAnalyzer analyzer(graph);
    analyzer_ms.push_back(1e3 * (wall_now() - t0));
    states.push_back(static_cast<double>(graph.num_states()));

    std::vector<const core::GcsSpnModel*> ptrs;
    std::vector<const spn::PetriNet*> nets;
    for (auto& model : models) {
      model.enable_factor_memo();
      ptrs.push_back(&model);
      nets.push_back(&model.net());
    }
    const std::size_t E = graph.edges.size();
    std::vector<double> rates(E * kBatch), impulses(E * kBatch);
    const auto fast = core::GcsSpnModel::batch_rate_fn(ptrs);
    midas::util::Arena arena;
    std::vector<double> rr, ss;
    for (int rep = 0; rep < 5; ++rep) {
      t0 = wall_now();
      graph.compute_rates_batch(nets, rates, impulses, fast);
      rr.push_back(1e6 * (wall_now() - t0) / kBatch);
      arena.reset();
      t0 = wall_now();
      const auto evals = core::evaluate_with_batch(ptrs, analyzer, rates,
                                                   impulses, true, arena);
      ss.push_back(1e6 * (wall_now() - t0) / kBatch);
    }
    rerate_us.push_back(median(rr));
    solve_us.push_back(median(ss));
  }
  m["analytic.explore_ms"] = median(explore_ms);
  m["analytic.analyzer_ms"] = median(analyzer_ms);
  m["analytic.rerate_us_per_point"] = median(rerate_us);
  m["analytic.solve_rewards_us_per_point"] = median(solve_us);
  m["analytic.states_per_point"] = median(states);
}

void des_probes(std::uint64_t seed, std::map<std::string, double>& m) {
  std::vector<double> context_ms;
  const core::Params paper = core::Params::paper_defaults();
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = wall_now();
    const sim::DesContext ctx = sim::DesContext::fresh(paper);
    context_ms.push_back(1e3 * (wall_now() - t0));
  }
  m["des.context_ms"] = median(context_ms);

  using midas::ids::DetectorKind;
  constexpr std::size_t kTrajectories = 200;
  double events = 0.0;
  sim::McOptions mc;
  mc.base_seed = seed;
  const sim::MonteCarloEngine engine(mc);
  for (const DetectorKind kind :
       {DetectorKind::Static, DetectorKind::Entropy, DetectorKind::Cusum,
        DetectorKind::Logistic}) {
    core::Params p = des_validation_base();
    p.detector.kind = kind;
    const sim::DesContext ctx(p);
    const double t0 = wall_now();
    for (std::size_t rep = 0; rep < kTrajectories; ++rep) {
      sim::UniformStream draw(engine.replication_seed(0, rep));
      sim::GroupSimulator simulator(p, ctx);
      while (simulator.step(draw) == sim::GroupSimulator::Status::Running) {
        events += 1.0;
      }
      events += 1.0;
    }
    m[std::string("des.trajectory_us.") + midas::ids::to_string(kind)] =
        1e6 * (wall_now() - t0) / kTrajectories;
  }
  m["des.events_per_trajectory"] = events / (4.0 * kTrajectories);
}

void protocol_probes(std::uint64_t seed, std::map<std::string, double>& m) {
  RequestStream stream(Workload::TimelineMix, seed);
  core::ExperimentSpec spec = stream.next();
  while (spec.base.schedule.empty()) spec = stream.next();
  const core::GridSpec grid = spec.grid();
  const sim::ProtocolSimParams params =
      protocol_point(spec, grid.point(spec.base, 0));
  const sim::MonteCarloEngine engine(spec.mc);
  constexpr std::size_t kTrajectories = 6;
  double votes = 0.0, rekeys = 0.0, timeouts = 0.0;
  const double t0 = wall_now();
  for (std::size_t rep = 0; rep < kTrajectories; ++rep) {
    const sim::ProtocolSimResult r =
        sim::run_protocol_sim(params, engine.replication_seed(0, rep));
    votes += static_cast<double>(r.vote_messages);
    rekeys += static_cast<double>(r.rekey_events);
    timeouts += r.timed_out ? 1.0 : 0.0;
  }
  m["protocol.trajectory_ms"] = 1e3 * (wall_now() - t0) / kTrajectories;
  m["protocol.vote_messages_per_trajectory"] = votes / kTrajectories;
  m["protocol.rekeys_per_trajectory"] = rekeys / kTrajectories;
  m["protocol.timeouts"] = timeouts;
}

}  // namespace

TraceReport traced_run(Workload workload, std::uint64_t seed,
                       const LoopRun& untraced, std::ostream& log) {
  TraceReport report;
  RequestStream stream(workload, seed);
  core::ExperimentService service;
  {
    core::ExperimentResult warm;
    (void)answer(service, stream.next().to_json().dump_compact(), warm);
  }

  Tracer tracer;
  Tally tally;
  Digest digest;
  const std::size_t n = untraced.result_hashes.size();
  const std::size_t prefix = prefix_requests(workload);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string spec_text = stream.next().to_json().dump_compact();
    if (!untraced.ok[i]) continue;
    std::uint64_t h = 0;
    try {
      h = hash_of(replay(service, tracer, tally,
                         static_cast<std::uint32_t>(i + 1), spec_text));
    } catch (const std::exception& e) {
      log << "replay of request " << i + 1 << " failed: " << e.what() << "\n";
    }
    if (h != untraced.result_hashes[i]) ++report.mismatches;
    if (i < prefix) digest.add(h);
    ++report.replayed;
  }
  report.digest = digest.hex();
  tracer.print_self_times(log);

  const auto sums = sum_spans(tracer);
  const auto sum = [&](const char* name) {
    const auto it = sums.find(name);
    return it == sums.end() ? SpanSum{} : it->second;
  };
  const double threads = static_cast<double>(resolved_threads(service));
  const double reqs = static_cast<double>(tally.requests);
  std::map<std::string, double> m;
  m["svc.parse_validate_ms"] =
      1e3 * ratio(sum("svc.parse_validate").wall, reqs);
  m["svc.plan_ms"] = 1e3 * ratio(sum("svc.plan").wall, reqs);
  m["svc.serialise_ms"] = 1e3 * ratio(sum("svc.serialise").wall, reqs);
  m["svc.result_kb"] = ratio(tally.result_bytes / 1024.0, reqs);

  const SpanSum eval = sum("analytic.evaluate");
  m["analytic.evaluate_s"] = ratio(eval.wall, reqs);
  m["analytic.cpu_util"] = ratio(eval.cpu, eval.wall * threads);
  m["analytic.cache_hit_ratio"] =
      ratio(static_cast<double>(tally.structure_lookups - tally.explorations),
            static_cast<double>(tally.structure_lookups));
  m["analytic.explorations"] =
      ratio(static_cast<double>(tally.explorations), reqs);
  m["analytic.states_explored"] =
      ratio(static_cast<double>(tally.states_explored),
            static_cast<double>(tally.explorations));

  m["mission.ms_per_point"] =
      1e3 * ratio(sum("mission.evaluate").wall,
                  static_cast<double>(tally.mission_points));
  m["mission.segments_per_point"] =
      ratio(static_cast<double>(tally.mission_segments),
            static_cast<double>(tally.mission_points));

  const SpanSum des = sum("des.run_des");
  const double des_calls = static_cast<double>(tally.des_calls);
  m["des.run_s"] = ratio(des.wall, reqs);
  m["des.trajectories_per_s"] =
      ratio(static_cast<double>(tally.des_reps), des.wall);
  m["des.cpu_util"] = ratio(des.cpu, des.wall * threads);
  m["des.reps_per_point"] = ratio(static_cast<double>(tally.des_reps),
                                  static_cast<double>(tally.des_points));
  m["des.converged_frac"] = ratio(static_cast<double>(tally.des_converged),
                                  static_cast<double>(tally.des_points));
  m["des.blocks"] = ratio(static_cast<double>(tally.des_blocks), des_calls);
  m["des.rounds"] = ratio(static_cast<double>(tally.des_rounds), des_calls);

  m["vr.run_s"] = ratio(sum("vr.run_vr").wall, reqs);
  m["vr.points"] = ratio(static_cast<double>(tally.vr_points), reqs);

  const SpanSum proto = sum("protocol.run_protocol");
  m["protocol.run_s"] = ratio(proto.wall, reqs);
  m["protocol.trajectories_per_s"] =
      ratio(static_cast<double>(tally.protocol_reps), proto.wall);
  m["protocol.cpu_util"] = ratio(proto.cpu, proto.wall * threads);

  // Overhead: the replay's serving time against the untraced one, over
  // the same requests.
  double untraced_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (untraced.ok[i]) untraced_s += untraced.latencies_s[i];
  }
  m["trace.overhead_frac"] = ratio(sum("request").wall, untraced_s) - 1.0;

  analytic_probes(seed, m);
  des_probes(seed, m);
  protocol_probes(seed, m);

  for (Metric metric : per_layer_metric_names()) {
    const auto it = m.find(metric.name);
    if (it == m.end()) {
      throw std::logic_error("traced run did not produce " + metric.name);
    }
    metric.value = it->second;
    report.metrics.push_back(std::move(metric));
  }
  return report;
}

}  // namespace perfbench
