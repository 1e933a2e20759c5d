// Per-layer metrics of a traced pass, measured from outside the program:
// the registry's existing histograms and counters, the existing spans, the
// TaskProfiler attached to the exec pool, and the benchmark's own timings.
//
// Every workload reports the same names; a layer the workload does not
// exercise reads 0. layers.json in the trace directory holds the same map.
#ifndef IPOOL_BENCH_SUITE_LAYERS_H_
#define IPOOL_BENCH_SUITE_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "bench/suite/open_loop.h"
#include "bench/suite/suite.h"

namespace ipool {
namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs
namespace exec {
class TaskProfiler;
}  // namespace exec
}  // namespace ipool

namespace ipool::bench::suite {

/// Histogram the benchmark's GET handler lambda feeds with the time spent
/// in Router::Handle (traced passes only).
inline constexpr char kHandlerHistogram[] = "bench_get_handler_seconds";

/// Label of the offline fan-outs in profiler timelines.
inline constexpr char kOfflineLabel[] = "bench.offline";

struct LayerInputs {
  const obs::MetricsRegistry* registry = nullptr;
  const obs::Tracer* tracer = nullptr;
  /// Spans that started before this tracer time (set-up) are ignored.
  double span_start_seconds = 0.0;
  const exec::TaskProfiler* profiler = nullptr;
  /// Background or foreground GETs of the traced pass (null: none ran).
  const LoadStats* gets = nullptr;
  /// Wall time of the traced timed region and the exec workers it had.
  double region_seconds = 0.0;
  size_t exec_threads = 0;
  /// Work stealing during the region (ThreadPool::tasks_stolen delta).
  uint64_t steals = 0;
  /// Benchmark-timed TickOnce wall times.
  std::vector<double> tick_seconds;
  /// ShardedDocumentStore::payload_builds delta over the region.
  uint64_t payload_builds = 0;
  /// Benchmark-timed Forecaster::Fit per deep model name.
  std::map<std::string, std::vector<double>> nn_fit_seconds;
  /// Change of the workload's primary timing, traced vs untraced.
  double trace_overhead_pct = 0.0;
  /// Served schedules scored against the demand that followed.
  double avg_wait_seconds = 0.0;
  double idle_hours = 0.0;
};

/// Fills every per-layer metric.
Report CollectLayers(const LayerInputs& in);

}  // namespace ipool::bench::suite

#endif  // IPOOL_BENCH_SUITE_LAYERS_H_
