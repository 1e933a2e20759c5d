// Multi-pool operation — the paper's stated future work (§9): "operation of
// multiple pools with different configurations (cluster size, etc.)".
// Production Fabric runs one session pool and one cluster pool per region
// with a fixed cluster shape; here several pools with different cluster
// sizes run side by side on one shared virtual clock, each serving the
// requests of its size class with its own target-size schedule, and results
// aggregate into fleet-level metrics (idle cost weighted by cores per
// cluster).
//
// With `allow_upgrade` enabled, a request whose own class pool is drained is
// served instantly from the next larger class with a ready cluster (an
// upgrade: more cores than asked for, but zero wait); only if every eligible
// pool is drained does the request fall back to on-demand creation in its
// own class.
#ifndef IPOOL_SIM_MULTI_POOL_H_
#define IPOOL_SIM_MULTI_POOL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/pool_simulator.h"

namespace ipool {

struct PoolClass {
  std::string name;               // e.g. "3-node medium"
  double cores_per_cluster = 24;  // weight for fleet COGS
  SimConfig sim;                  // creation latency etc. for this shape
};

/// A cluster request annotated with the pool class it needs. Classes are
/// ordered smallest to largest; upgrades only go upward.
struct SizedRequest {
  double time = 0.0;
  size_t size_class = 0;
};

struct MultiPoolResult {
  /// Cluster-side stats per pool class; request-side counts are attributed
  /// to the request's *origin* class (an upgraded request counts as a hit
  /// for its own class).
  std::vector<SimResult> per_pool;
  int64_t total_requests = 0;
  int64_t pool_hits = 0;
  /// Hits served by a larger class than requested (0 unless allow_upgrade).
  int64_t upgrades = 0;
  double hit_rate = 1.0;
  double avg_wait_seconds = 0.0;
  /// Idle cost in core-seconds: sum over pools of idle cluster-seconds
  /// weighted by that class's cores per cluster.
  double idle_core_seconds = 0.0;
};

class MultiPoolSimulator {
 public:
  /// `classes` must be ordered smallest to largest when upgrades are used.
  /// Validation rejects empty class lists and invalid per-class sim configs.
  static Result<MultiPoolSimulator> Create(std::vector<PoolClass> classes,
                                           bool allow_upgrade = false);

  /// Replays the sized requests against one schedule per class (each
  /// schedule[i] has one target per bin, as in PoolSimulator::Run).
  /// Requests must be sorted by time; each request's size_class must index
  /// into the class list.
  Result<MultiPoolResult> Run(
      const std::vector<SizedRequest>& requests,
      const std::vector<std::vector<int64_t>>& schedules,
      double interval_seconds, double horizon_seconds) const;

  size_t num_classes() const { return classes_.size(); }
  const PoolClass& pool_class(size_t i) const { return classes_[i]; }
  bool allow_upgrade() const { return allow_upgrade_; }

 private:
  MultiPoolSimulator(std::vector<PoolClass> classes, bool allow_upgrade)
      : classes_(std::move(classes)), allow_upgrade_(allow_upgrade) {}

  std::vector<PoolClass> classes_;
  bool allow_upgrade_;
};

/// Splits a sized-request stream into per-class event streams (helper for
/// running per-class forecasting pipelines).
std::vector<std::vector<double>> SplitByClass(
    const std::vector<SizedRequest>& requests, size_t num_classes);

}  // namespace ipool

#endif  // IPOOL_SIM_MULTI_POOL_H_
