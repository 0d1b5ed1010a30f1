#include "client.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <thread>

#include "util/json.h"

namespace perfbench {

using midas::core::BackendKind;
using midas::core::ExperimentResult;
using midas::core::ExperimentService;
using midas::core::ExperimentSpec;
using midas::util::Json;

std::string answer(ExperimentService& service, const std::string& spec_text,
                   ExperimentResult& result) {
  const ExperimentSpec spec = ExperimentSpec::from_json(Json::parse(spec_text));
  result = service.run(spec);
  return result.to_json().dump_compact();
}

std::string canonical_text(const ExperimentResult& result) {
  return result.canonical_json().dump_compact();
}

bool round_trip_ok(const std::string& result_text,
                   const std::string& canonical) {
  const ExperimentResult parsed =
      ExperimentResult::from_json(Json::parse(result_text));
  return canonical_text(parsed) == canonical;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001B3ULL;
  }
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xFF;
    h_ *= 0x100000001B3ULL;
  }
}

std::string Digest::hex() const { return hex64(h_); }

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t hash_of(std::string_view bytes) {
  Digest d;
  d.add(bytes);
  return d.value();
}

std::size_t Containment::add(const ExperimentResult& result) {
  const auto* analytic = result.find(BackendKind::Analytic);
  const auto* des = result.find(BackendKind::Des);
  if (analytic == nullptr || des == nullptr) return 0;
  std::size_t misses = 0;
  for (std::size_t i = 0; i < des->mc.size(); ++i) {
    ++points;
    if (des->mc[i].ttsf.contains(analytic->evals[i].mttsf)) {
      ++inside;
    } else {
      ++misses;
    }
  }
  return misses;
}

std::size_t Containment::allowed_misses() const {
  return std::max<std::size_t>(1, points * 15 / 100);
}

std::size_t points_of(const ExperimentSpec& spec) {
  return spec.resolve_range(spec.grid()).size();
}

std::size_t prefix_requests(Workload workload) {
  switch (workload) {
    case Workload::AnalyticSweep:
      return 150;
    case Workload::DesValidation:
      return 150;
    case Workload::TimelineMix:
      return 12;
  }
  return 1;
}

std::size_t LoopRun::failed() const {
  std::size_t n = static_cast<std::size_t>(
      std::count(ok.begin(), ok.end(), std::uint8_t{0}));
  if (!containment.ok()) n += containment_requests;
  return n;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::size_t default_threads() {
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

LoopRun run_closed_loop(Workload workload, std::uint64_t seed,
                        double seconds) {
  LoopRun run;
  RequestStream stream(workload, seed);
  ExperimentService service;
  const std::size_t prefix = prefix_requests(workload);
  Rng pick(seed ^ 0xC0FFEEULL);
  run.sample_index = 1 + pick.below(prefix);

  ExperimentResult result;
  {
    const std::string text = stream.next().to_json().dump_compact();
    (void)answer(service, text, result);
    run.setup_hash = hash_of(canonical_text(result));
  }

  Digest digest;
  while (run.window_s < seconds || run.latencies_s.size() < prefix) {
    const std::size_t index = run.latencies_s.size() + 1;
    const double t_gen = wall_now();
    const ExperimentSpec spec = stream.next();
    const std::string spec_text = spec.to_json().dump_compact();
    std::string result_text;
    bool ok = true;
    const double t0 = wall_now();
    try {
      result_text = answer(service, spec_text, result);
    } catch (const std::exception& e) {
      std::cerr << "request " << index << " failed: " << e.what() << "\n";
      ok = false;
    }
    const double t1 = wall_now();
    run.window_s += t1 - t_gen;
    run.latencies_s.push_back(t1 - t0);
    run.points += points_of(spec);

    // Output checks, outside the window.
    std::uint64_t h = 0;
    if (ok) {
      const std::string canonical = canonical_text(result);
      h = hash_of(canonical);
      if (!round_trip_ok(result_text, canonical)) {
        std::cerr << "request " << index << ": canonical result does not "
                  << "survive to_json -> parse -> from_json\n";
        ok = false;
      }
      if (run.containment.add(result) > 0) ++run.containment_requests;
      if (index == run.sample_index) {
        run.sample_spec = spec_text;
        run.sample_canonical = canonical;
      }
    }
    run.ok.push_back(ok ? 1 : 0);
    run.result_hashes.push_back(h);
    if (index <= prefix) digest.add(h);
    if (index == prefix) run.peak_rss_mb = peak_rss_mb();
  }
  run.digest = digest.hex();
  return run;
}

bool single_thread_matches(const LoopRun& run) {
  if (run.sample_spec.empty()) return false;
  midas::core::ExperimentServiceOptions opts;
  opts.threads = 1;
  ExperimentService service(opts);
  ExperimentResult result;
  try {
    (void)answer(service, run.sample_spec, result);
  } catch (const std::exception& e) {
    std::cerr << "threads=1 re-answer failed: " << e.what() << "\n";
    return false;
  }
  return canonical_text(result) == run.sample_canonical;
}

}  // namespace perfbench
