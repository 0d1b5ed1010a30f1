// The closed-loop client: one caller that sends the next spec only after
// the previous result text came back, exactly as a fleet worker drives
// core::ExperimentService (spec JSON text in, result JSON text out), plus
// the output checks every answer goes through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "workloads.h"

namespace perfbench {

/// Spec JSON text → parse → ExperimentService::run → result JSON text.
/// This call is the timed unit of the benchmark.
[[nodiscard]] std::string answer(midas::core::ExperimentService& service,
                                 const std::string& spec_text,
                                 midas::core::ExperimentResult& result);

/// canonical_json() of `result` as compact text.
[[nodiscard]] std::string canonical_text(
    const midas::core::ExperimentResult& result);

/// True when the canonical payload survives to_json → parse → from_json
/// byte-identically (checked from the result text the client received).
[[nodiscard]] bool round_trip_ok(const std::string& result_text,
                                 const std::string& canonical);

/// FNV-1a 64.  The run digest chains the hashes of every digested
/// canonical result, in request order.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

[[nodiscard]] std::uint64_t hash_of(std::string_view bytes);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Median of a non-empty sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);

/// Analytic-vs-DES containment over the analytic-compatible points that
/// both backends answered, gated by the repo's max(1, 15%) miss rule.
struct Containment {
  std::size_t points = 0;
  std::size_t inside = 0;

  /// Adds a result's points; returns the number outside their CI.
  std::size_t add(const midas::core::ExperimentResult& result);
  [[nodiscard]] std::size_t allowed_misses() const;
  [[nodiscard]] bool ok() const { return inside + allowed_misses() >= points; }
};

/// Grid points a request answers (once, however many backends ran).
[[nodiscard]] std::size_t points_of(const midas::core::ExperimentSpec& spec);

/// The fixed request prefix of a run: every run serves at least these
/// requests (past the window if the machine is slow), the digest covers
/// every one of them and peak_rss_mb is read when it completes — so
/// neither depends on machine speed, and a faster commit that serves more
/// requests (and caches more structures) in the window does not read as
/// a memory regression.
[[nodiscard]] std::size_t prefix_requests(Workload workload);

/// Outcome of one untraced closed-loop run over requests 1..n.
struct LoopRun {
  std::vector<std::uint64_t> result_hashes;  ///< per request, canonical
  std::vector<double> latencies_s;  ///< per request, spec → result text
  std::vector<std::uint8_t> ok;     ///< per request, answered + checked
  std::size_t points = 0;
  double window_s = 0.0;  ///< request generation + serving, requests 1..n
  std::uint64_t setup_hash = 0;  ///< request 0's canonical result
  std::string digest;            ///< over the prefix requests, in order
  Containment containment;
  std::size_t containment_requests = 0;  ///< requests with a CI miss
  double peak_rss_mb = 0.0;  ///< high-water RSS after the prefix
  // The request re-answered at threads=1 after the window.
  std::size_t sample_index = 0;
  std::string sample_spec;
  std::string sample_canonical;

  [[nodiscard]] std::size_t failed() const;
};

/// Runs request 0 untimed on a fresh service, then the closed loop over
/// requests 1, 2, ... until `seconds` of window time have elapsed.
[[nodiscard]] LoopRun run_closed_loop(Workload workload, std::uint64_t seed,
                                      double seconds);

/// Re-answers the run's sampled request on a fresh single-threaded
/// service; true when its canonical bytes match.
[[nodiscard]] bool single_thread_matches(const LoopRun& run);

/// The service's default worker count (ExperimentServiceOptions::threads
/// = 0 resolves to this).
[[nodiscard]] std::size_t default_threads();

/// Resident-set high-water mark of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Monotonic wall clock and process CPU clock, in seconds.
[[nodiscard]] double wall_now();
[[nodiscard]] double cpu_now();

}  // namespace perfbench
