// Trace replay through the live control plane on a virtual clock: the
// paper's §7 loop (telemetry -> forecast -> SAA -> recommendation document
// -> pooling worker, Fig. 2) run by the same LiveControlPlane that `serve`
// ticks, but driven bin by bin from recorded demand so its decisions can be
// scored offline with the event-driven pool simulator.
//
// One plane hosts every pool of the replay over 1-shard stores, its clock
// set to trace time. As each bin of the trace closes, the bin's request
// count is published at the bin's start (zero bins included), so every
// tick's history ends on the bin before "now". Every run interval the
// replay ticks the plane once — the §7.5 guardrail and §7.6 failure
// injection run inside that tick — and after every bin it reads each pool's
// document the way a pooling worker does: a missing, too-old or unparseable
// document gives the default pool size.
#ifndef IPOOL_LIVE_REPLAY_H_
#define IPOOL_LIVE_REPLAY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "obs/obs_context.h"
#include "service/sharded_document_store.h"
#include "sim/pool_simulator.h"
#include "tsdata/time_series.h"

namespace ipool::live {

/// One pool of a replay: its binned demand trace, whose bin grid is the
/// grid the plane forecasts on, and the raw request events that are
/// published as telemetry and scored by the simulator.
struct ReplayPool {
  TimeSeries demand;
  std::vector<double> request_events;
};

struct ReplayConfig {
  /// Trace seconds between plane ticks (paper: every 30 min, each run
  /// recommending the next hour).
  double run_interval_seconds = 1800.0;
  /// History window fed to the engine, in bins.
  size_t history_bins = 2880;  // one day at 30 s
  /// LiveControlPlaneConfig::guardrail_mae_ratio; 0 disables the guardrail.
  /// The default is loose enough to tolerate deliberate overshoot (a
  /// forecaster trained with alpha' near 1 predicts above demand).
  double guardrail_mae_ratio = 3.0;
  /// §7.6 "consecutive system failures": a document older than this is
  /// distrusted and the pool runs at the default size.
  double recommendation_ttl_seconds = 3600.0;
  int64_t default_pool_size = 4;
  SimConfig sim;
  /// Per-pool fan-out of each tick's compute stage.
  exec::ExecContext exec;
  /// Observability sink (optional), handed to the plane and, unless wired
  /// explicitly, to the simulator: a "live.replay" root span over the ticks'
  /// live.* spans and one "simulate" span per pool.
  ObsContext obs;

  Status Validate() const;
};

struct ReplayResult {
  SimResult sim;
  /// The pool target applied per bin.
  std::vector<int64_t> applied_schedule;
  size_t pipeline_runs = 0;
  size_t pipeline_failures = 0;
  size_t guardrail_rejections = 0;
  /// Bins run on the default size.
  size_t fallback_bins = 0;
};

/// Replays `pools`, which must share one bin grid, through one
/// LiveControlPlane and simulates each pool's applied schedule. Results come
/// back in pool order. Pool i runs as plane pool `pool<i>` (telemetry metric
/// `demand.pool<i>`, document `pool<i>`), the name its metrics carry.
/// `fail_run` (optional) returns true to crash every pool's pipeline run
/// `run` (0-based): the §7.6 fault-injection hook.
Result<std::vector<ReplayResult>> Replay(
    const RecommendationEngine& engine, const ReplayConfig& config,
    const std::vector<ReplayPool>& pools,
    const std::function<bool(size_t)>& fail_run = nullptr);

/// The pooling worker's read of `doc` at trace time `now`: the covering
/// bin's target, or nullopt (run the default size) when the document is
/// missing, older than `ttl_seconds` or unparseable.
std::optional<int64_t> PoolTarget(
    const Result<ShardedDocumentStore::Document>& doc, double now,
    double ttl_seconds);

}  // namespace ipool::live

#endif  // IPOOL_LIVE_REPLAY_H_
