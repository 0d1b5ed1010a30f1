// perfbench — the repo benchmark's measuring process.  perfbench/run.py
// builds it and drives it; the modes are:
//
//   perfbench run --workload W --seed N --seconds S [--emit-requests 1]
//       closed loop over W's requests for S seconds of window time and
//       the output checks.  Prints a "record" JSON line, then the result
//       JSON line; --emit-requests 1 first prints an "untraced" line with
//       the per-request result hashes and latencies.
//   perfbench replay --workload W --seed N  < untraced line
//       the traced run: replays those requests through the layer entry
//       points, runs the probes, prints the per-layer result line.
//   perfbench setup --workload W --seed N
//       service construction + the cold set-up request, timed in this
//       fresh process; prints {"setup_s": ..., "setup_hash": ...}.
//   perfbench requests --workload W --seed N --count K
//       prints the first K generated spec texts, one per line.
//   perfbench metrics
//       prints every metric name and unit this binary reports.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "client.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using midas::util::Json;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  [[nodiscard]] const std::string& get(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) {
      throw std::invalid_argument("missing --" + name);
    }
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + flag + "'");
    }
    args.flags[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    out.set(m.name, std::move(entry));
  }
  return out;
}

/// Highest-rank latency with at least 10 requests beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > 10 ? n - 11 : 0;
  return {v[rank],
          100.0 * static_cast<double>(rank + 1) / static_cast<double>(n),
          n - rank - 1};
}

Json record_json(Workload workload, std::uint64_t seed) {
  Json record = Json::object();
  record.set("workload", Json(std::string(to_string(workload))));
  record.set("seed", Json(static_cast<double>(seed)));
  record.set("nproc", Json(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  record.set("service_threads",
             Json(static_cast<double>(default_threads())));
  record.set("compiler", Json(std::string(PERFBENCH_COMPILER)));
  record.set("build_type", Json(std::string(PERFBENCH_BUILD_TYPE)));
  return record;
}

void print_result(Json record, bool correct, std::size_t attempted,
                  std::size_t failed, const std::vector<Metric>& metrics) {
  Json head = Json::object();
  head.set("record", std::move(record));
  std::cout << head.dump_compact() << "\n";
  Json out = Json::object();
  out.set("correct", Json(correct));
  out.set("attempted", Json(static_cast<double>(attempted)));
  out.set("failed", Json(static_cast<double>(failed)));
  out.set("metrics", metrics_json(metrics));
  std::cout << out.dump_compact() << std::endl;
}

int run_mode(const Args& args) {
  const Workload workload = workload_from(args.get("workload"));
  const std::uint64_t seed = std::stoull(args.get("seed"));
  const double seconds = std::stod(args.get("seconds"));

  const LoopRun run = run_closed_loop(workload, seed, seconds);
  const bool single_ok = single_thread_matches(run);
  const std::size_t failed = run.failed() + (single_ok ? 0 : 1);

  const std::size_t n = run.latencies_s.size();
  const Tail tail = tail_of(run.latencies_s);
  Json record = record_json(workload, seed);
  record.set("requests", Json(static_cast<double>(n)));
  record.set("points", Json(static_cast<double>(run.points)));
  record.set("window_s", Json(run.window_s));
  record.set("tail_percentile", Json(tail.percentile));
  record.set("tail_requests_beyond", Json(static_cast<double>(tail.beyond)));
  record.set("error_rate",
             Json(static_cast<double>(failed) / static_cast<double>(n)));
  record.set("digest", Json(run.digest));
  record.set("digest_requests",
             Json(static_cast<double>(prefix_requests(workload))));
  record.set("setup_hash", Json(hex64(run.setup_hash)));
  record.set("ci_points", Json(static_cast<double>(run.containment.points)));
  record.set("ci_inside", Json(static_cast<double>(run.containment.inside)));
  record.set("ci_allowed_misses",
             Json(static_cast<double>(run.containment.allowed_misses())));
  record.set("threads1_sample", Json(static_cast<double>(run.sample_index)));
  record.set("threads1_match", Json(single_ok));

  const auto emit = args.flags.find("emit-requests");
  if (emit != args.flags.end() && emit->second == "1") {
    // What the traced replay (another fresh process) must reproduce.
    Json hashes = Json::array(), ok = Json::array(), lat = Json::array();
    for (std::size_t i = 0; i < n; ++i) {
      hashes.push_back(Json(hex64(run.result_hashes[i])));
      ok.push_back(Json(run.ok[i] != 0));
      lat.push_back(Json(run.latencies_s[i]));
    }
    Json untraced = Json::object();
    untraced.set("digest", Json(run.digest));
    untraced.set("hashes", std::move(hashes));
    untraced.set("ok", std::move(ok));
    untraced.set("latencies_s", std::move(lat));
    Json line = Json::object();
    line.set("untraced", std::move(untraced));
    std::cout << line.dump_compact() << "\n";
  }

  print_result(std::move(record), failed == 0, n, failed,
               {{"points_per_s", static_cast<double>(run.points) / run.window_s,
                 "1/s"},
                {"request_p50_s", median(run.latencies_s), "s"},
                {"request_tail_s", tail.value, "s"},
                {"peak_rss_mb", run.peak_rss_mb, "MB"}});
  return 0;
}

/// Reads the "untraced" line of a `run --emit-requests 1` process from
/// stdin and replays those requests traced, in this fresh process (so
/// process-wide memos start as cold as they did for the untraced run).
int replay_mode(const Args& args) {
  const Workload workload = workload_from(args.get("workload"));
  const std::uint64_t seed = std::stoull(args.get("seed"));
  std::ostringstream in;
  in << std::cin.rdbuf();
  const Json line = Json::parse(in.str());
  const Json& untraced = line.at("untraced");
  LoopRun run;
  run.digest = untraced.at("digest").as_string();
  for (const Json& h : untraced.at("hashes").elements()) {
    run.result_hashes.push_back(std::stoull(h.as_string(), nullptr, 16));
  }
  for (const Json& ok : untraced.at("ok").elements()) {
    run.ok.push_back(ok.as_bool() ? 1 : 0);
  }
  for (const Json& lat : untraced.at("latencies_s").elements()) {
    run.latencies_s.push_back(lat.as_number());
  }

  std::ostringstream log;
  const TraceReport report = traced_run(workload, seed, run, log);
  std::cout << log.str();
  Json record = record_json(workload, seed);
  record.set("trace_digest", Json(report.digest));
  record.set("untraced_digest", Json(run.digest));
  record.set("trace_replayed", Json(static_cast<double>(report.replayed)));
  record.set("trace_mismatches", Json(static_cast<double>(report.mismatches)));
  const bool correct = report.mismatches == 0 && report.digest == run.digest;
  print_result(std::move(record), correct, run.result_hashes.size(),
               report.mismatches + (report.digest == run.digest ? 0 : 1),
               report.metrics);
  return 0;
}

int setup_mode(const Args& args) {
  const Workload workload = workload_from(args.get("workload"));
  const std::uint64_t seed = std::stoull(args.get("seed"));
  const std::string text =
      RequestStream(workload, seed).next().to_json().dump_compact();
  const double t0 = wall_now();
  midas::core::ExperimentService service;
  midas::core::ExperimentResult result;
  (void)answer(service, text, result);
  const double setup_s = wall_now() - t0;
  Json out = Json::object();
  out.set("setup_s", Json(setup_s));
  out.set("setup_hash", Json(hex64(hash_of(canonical_text(result)))));
  std::cout << out.dump_compact() << std::endl;
  return 0;
}

int requests_mode(const Args& args) {
  RequestStream stream(workload_from(args.get("workload")),
                       std::stoull(args.get("seed")));
  const int count = std::stoi(args.get("count"));
  for (int i = 0; i < count; ++i) {
    std::cout << stream.next().to_json().dump_compact() << "\n";
  }
  return 0;
}

int metrics_mode() {
  for (const char* name :
       {"points_per_s", "request_p50_s", "request_tail_s", "peak_rss_mb"}) {
    std::cout << "end_to_end " << name << "\n";
  }
  for (const Metric& m : per_layer_metric_names()) {
    std::cout << "per_layer " << m.name << " " << m.unit << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "run") return run_mode(args);
    if (args.mode == "replay") return replay_mode(args);
    if (args.mode == "setup") return setup_mode(args);
    if (args.mode == "requests") return requests_mode(args);
    if (args.mode == "metrics") return metrics_mode();
    throw std::invalid_argument("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
