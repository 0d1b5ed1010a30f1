// The traced run: replays a closed-loop run's requests through the layer
// entry points ExperimentService::run calls, recording one span per call
// from the benchmark's side (nothing inside src/ is instrumented), then
// probes single layers single-threaded through their public functions.
// Spans stay in memory until the run ends; the per-layer metrics and the
// self-time table are derived from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "client.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed call: `parent` indexes the enclosing span (-1 = root); spans
/// of one request share `request`.
struct Span {
  const char* name = "";
  std::uint32_t request = 0;
  std::int32_t parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time consumed inside the span
};

class Tracer {
 public:
  std::int32_t begin(const char* name, std::uint32_t request,
                     std::int32_t parent);
  void end(std::int32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Calls, total and self seconds per span name (self = duration minus
  /// the part covered by child spans).
  void print_self_times(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<double> cpu_start_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t request,
             std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

struct TraceReport {
  std::vector<Metric> metrics;  ///< every per-layer metric, in order
  std::string digest;           ///< replay digest (the prefix requests)
  std::size_t replayed = 0;
  std::size_t mismatches = 0;   ///< replayed results ≠ untraced bytes
};

/// Replays `untraced`'s requests (regenerated from the seed) on a fresh
/// service, then runs the layer probes.  Prints the self-time table.
[[nodiscard]] TraceReport traced_run(Workload workload, std::uint64_t seed,
                                     const LoopRun& untraced,
                                     std::ostream& log);

/// Names (and units) of every per-layer metric, in report order.
[[nodiscard]] std::vector<Metric> per_layer_metric_names();

}  // namespace perfbench
