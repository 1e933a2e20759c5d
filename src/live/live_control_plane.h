// The in-process streaming control plane: the paper's production shape
// (§7, Fabric's Intelligent Pooling Worker) where telemetry streams in,
// the forecaster + SAA loop periodically republishes pool-size
// recommendations, and serving falls back to the last good recommendation
// when a pipeline run fails (§7.6).
//
// A LiveControlPlane runs inside the serving process on a periodic tick
// (own thread, condition-variable timed wait, clean shutdown on Stop). Each
// tick:
//
//   1. snapshot  — discover pools from the ShardedTelemetryStore (every
//      metric named `<prefix><pool>` is a pool) and copy out each eligible
//      pool's recent binned demand; each pool's point count, last time and
//      history are read under ONE shard shared lock (SnapshotBinned), so
//      the view is consistent per pool without any global mutex;
//   2. compute   — with no lock held, fit each pool's forecaster from
//      scratch on its snapshot and run the SAA solve, fanned out over the
//      exec pool (one task per pool; no forecaster state outlives a tick);
//   (guardrail)  — when guardrail_mae_ratio > 0, hold back every fresh
//      recommendation whose pool's previous forecast missed the telemetry
//      observed since by more than the §7.5 limit;
//   3. publish   — PutBatch every fresh recommendation into the
//      ShardedDocumentStore: ops are grouped by shard and each shard's
//      snapshot is swapped exactly once, so GetRecommendation readers of a
//      shard observe either none or all of this tick's writes to it
//      (document + version swap atomically within a shard). Documents whose
//      serialized bytes did not change reuse the store's cached payload —
//      no re-serialization cost on the read path, no version churn
//      (ShardedDocumentStore::payload_builds stays flat).
//
// Fault tolerance (§7.6): a pool whose pipeline fails this tick — engine
// error, solver infeasibility, injected fault — keeps its previous document
// (readers serve the stale recommendation) and the tick is counted under
// ipool_live_ticks_total{status="failed"}; per-pool recommendation age keeps
// rising (ipool_live_recommendation_age_seconds{pool=...}) until a later
// tick succeeds. Pools with fewer than `min_history_points` telemetry
// points are not yet pools: they are skipped without failing the tick.
#ifndef IPOOL_LIVE_LIVE_CONTROL_PLANE_H_
#define IPOOL_LIVE_LIVE_CONTROL_PLANE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autotune/fleet_tuner.h"
#include "common/status.h"
#include "core/recommendation_engine.h"
#include "exec/thread_pool.h"
#include "obs/obs_context.h"

namespace ipool {
class ShardedDocumentStore;
class ShardedTelemetryStore;
namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs
}  // namespace ipool

namespace ipool::live {

struct LiveControlPlaneConfig {
  /// Wall-clock cadence of the tick thread started by Start().
  double tick_interval_seconds = 5.0;
  /// Telemetry metrics named `<prefix><pool>` define the fleet; the
  /// recommendation for `<pool>` is published under document key `<pool>`.
  std::string demand_metric_prefix = "demand.";
  /// Binning of raw telemetry points into the model's history series. Times
  /// in telemetry are virtual (the store never reads a wall clock), so this
  /// is the virtual bin width, normally the recommendation interval.
  double bin_interval_seconds = 30.0;
  /// History window fed to the engine, in bins ending at the pool's newest
  /// telemetry point. Bins before the first point are zero.
  size_t history_bins = 480;
  /// A pool must have at least this many telemetry points before it is
  /// forecast at all; below the floor it is skipped, not failed.
  size_t min_history_points = 64;
  /// No effect: every tick fits each pool's forecaster cold. Kept only
  /// because the repository benchmark's fleet workloads still assign it;
  /// it goes away with the next benchmark change.
  bool warm_refit = true;
  /// §7.5 forecast-accuracy guardrail; 0 disables it. When positive, a
  /// `live.guardrail` stage between compute and publish scores each pool's
  /// previous forecast against the telemetry observed since it started: an
  /// MAE over the elapsed bins above
  ///   guardrail_mae_ratio * (mean of this tick's history + 1)
  /// holds the fresh recommendation back. The previous document keeps
  /// serving, the hold counts in ipool_live_guardrail_rejections_total, and
  /// the tick does not fail. The fresh forecast becomes the next check's
  /// reference either way: the model retrains every tick, so one bad
  /// forecast must not poison validation forever.
  double guardrail_mae_ratio = 0.0;
  /// Fan-out for the per-pool compute stage; null runs pools serially.
  exec::ExecContext exec;
  /// Metrics + spans sink (optional): ipool_live_ticks_total{status},
  /// ipool_live_tick_seconds, ipool_live_recommendation_age_seconds{pool},
  /// and live.tick > live.snapshot / live.refit_solve / live.guardrail /
  /// live.publish spans.
  ObsContext obs;
  /// Wall clock in seconds used for recommendation ages and document
  /// timestamps; null uses std::chrono::steady_clock. Tests inject a
  /// virtual clock to make staleness deterministic.
  std::function<double()> clock;

  /// Fleet auto-tuning cadence, in clock seconds per pool (0 disables the
  /// tuner entirely). When enabled, each tick appends a TUNE stage: every
  /// pool whose last tune is at least this old re-runs the
  /// successive-halving search over its snapshotted history, and the
  /// winning config is published as document `<tuning_doc_prefix><pool>` —
  /// a kept incumbent re-serializes byte-identically, so the store's
  /// payload cache absorbs the republish. The next tick's engine-resolve
  /// stage picks the document up and serves with it. A failed/degenerate
  /// tune never fails the tick: the incumbent config keeps serving (§7.6).
  double tune_interval_seconds = 0.0;
  std::string tuning_doc_prefix = "tuning.";
  /// Search-space shape for the tuner (grid, rungs, hysteresis...). The
  /// backtest geometry is pinned to the serving engine at Create: `pool`
  /// and `forecast` are overwritten from the engine's own config so tuning
  /// scores and serving behavior can't drift apart, and exec/obs default to
  /// the plane's own when left unset. Ignored unless
  /// tune_interval_seconds > 0.
  autotune::FleetTunerConfig tuner;

  Status Validate() const;
};

enum class TickStatus {
  /// No pool had enough telemetry (or none exists yet); nothing changed.
  kIdle,
  /// Every eligible pool ran its pipeline: each published a fresh
  /// recommendation or was held by the guardrail.
  kOk,
  /// At least one pool's pipeline failed; its stale document kept serving.
  kFailed,
};

const char* TickStatusName(TickStatus status);

/// Point-in-time view of the loop, served through net::Router::Health.
struct LiveStatus {
  uint64_t ticks_total = 0;
  uint64_t ticks_ok = 0;
  uint64_t ticks_failed = 0;
  uint64_t ticks_idle = 0;
  TickStatus last_tick_status = TickStatus::kIdle;
  /// Message of the most recent per-pool pipeline failure ("" when none).
  std::string last_error;
  /// Pools that have ever published a live recommendation.
  size_t pools_published = 0;
  /// Oldest live recommendation across pools, in clock seconds; 0 before
  /// the first publish.
  double max_recommendation_age_seconds = 0.0;
  /// Fleet auto-tuning (all 0 when the tuner is disabled).
  uint64_t tunes_total = 0;
  uint64_t tunes_switched = 0;
  uint64_t tunes_failed = 0;
  /// Pools currently served by a per-pool tuned engine (vs the shared one).
  size_t pools_tuned = 0;
  /// Message of the most recent failed tune ("" when none).
  std::string last_tune_error;
};

class LiveControlPlane {
 public:
  /// One pool's pipeline outcomes since Create.
  struct PoolState {
    double last_published = 0.0;  ///< clock seconds of the last good Put
    uint64_t publishes = 0;
    uint64_t failures = 0;
    /// Fresh recommendations the guardrail held back.
    uint64_t guardrail_rejections = 0;
  };

  /// The stores are internally synchronized (per-shard mutexes), so the
  /// plane needs no external coordination with the serving router — its
  /// reads and publishes are atomic per shard by construction. `engine` and
  /// the stores must outlive the plane.
  static Result<std::unique_ptr<LiveControlPlane>> Create(
      const RecommendationEngine* engine, ShardedTelemetryStore* telemetry,
      ShardedDocumentStore* documents,
      const LiveControlPlaneConfig& config);

  /// Stops the tick thread if running.
  ~LiveControlPlane();
  LiveControlPlane(const LiveControlPlane&) = delete;
  LiveControlPlane& operator=(const LiveControlPlane&) = delete;

  /// Starts the periodic tick thread. Idempotent.
  void Start();

  /// Signals the tick thread (condition variable, no polling) and joins it.
  /// The in-flight tick, if any, completes first. Idempotent; safe when
  /// Start was never called.
  void Stop();

  /// Runs one tick synchronously on the calling thread and returns its
  /// status. Ticks never run concurrently with each other: callers must not
  /// race TickOnce against a Start()ed thread — drive the loop one way or
  /// the other (tests call TickOnce for determinism).
  TickStatus TickOnce();

  /// §7.6 fault injection: the next `count` per-pool pipeline runs fail
  /// before reaching the engine. Thread-safe.
  void InjectFailures(size_t count) {
    injected_failures_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Thread-safe status snapshot (ages computed against the config clock).
  LiveStatus Snapshot() const;

  /// Thread-safe copy of every pool's outcome counts, keyed by pool.
  std::map<std::string, PoolState> PoolStates() const;

  const LiveControlPlaneConfig& config() const { return config_; }

 private:
  /// A pool discovered in the snapshot stage, history copied out so the
  /// compute stage runs without the store lock.
  struct PoolWork;
  /// A pool's last successful forecast: the guardrail's reference.
  struct ForecastRef {
    double start_time = 0.0;
    std::vector<double> predicted_demand;
  };

  /// Per-pool serving override built from a parsed `tuning.<pool>`
  /// document. Touched only inside TickOnce (single-threaded by contract).
  struct PoolEngine {
    /// Document version the engine was built from; a version bump (new
    /// bytes) rebuilds, a byte-identical republish (same version) doesn't.
    int64_t doc_version = -1;
    autotune::TuningCandidate active;
    std::unique_ptr<RecommendationEngine> engine;
  };

  LiveControlPlane(const RecommendationEngine* engine,
                   ShardedTelemetryStore* telemetry,
                   ShardedDocumentStore* documents,
                   const LiveControlPlaneConfig& config);

  void ThreadMain();
  double Now() const { return config_.clock(); }

  /// Resolves the engine serving `pool` this tick: the cached per-pool
  /// engine when its tuning document is unchanged, a freshly built one when
  /// the document moved, the shared engine when no document exists. A
  /// document that fails to parse (or to build an engine) keeps whatever
  /// served before — §7.6 — and counts against
  /// ipool_live_tuning_docs_rejected_total.
  const RecommendationEngine* ResolveEngine(const std::string& pool);

  /// True when `ref`'s forecast missed the telemetry observed over its
  /// elapsed bins (up to `now`) by more than the guardrail limit for
  /// `item`'s history. No elapsed bin means nothing to judge: false.
  bool GuardrailTrips(const PoolWork& item, const ForecastRef& ref,
                      double now) const;

  const RecommendationEngine* engine_;
  ShardedTelemetryStore* telemetry_;
  ShardedDocumentStore* documents_;
  LiveControlPlaneConfig config_;

  /// Guardrail references per pool; touched only inside TickOnce.
  std::map<std::string, ForecastRef> guardrail_refs_;

  /// Fleet auto-tuner (null when tune_interval_seconds == 0) and its
  /// per-pool bookkeeping; all touched only inside TickOnce.
  std::unique_ptr<autotune::FleetTuner> tuner_;
  std::map<std::string, PoolEngine> pool_engines_;
  std::map<std::string, double> last_tuned_;

  /// Tick thread machinery.
  std::thread ticker_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stop_requested_ = false;

  std::atomic<size_t> injected_failures_{0};

  /// Guards the status block below (written at the end of each tick, read
  /// by Snapshot from any thread).
  mutable std::mutex state_mu_;
  LiveStatus status_;
  std::map<std::string, PoolState> pool_states_;

  /// Instrument handles fetched once at Create (null when obs is unwired).
  obs::Counter* ticks_ok_ = nullptr;
  obs::Counter* ticks_failed_ = nullptr;
  obs::Counter* ticks_idle_ = nullptr;
  obs::Counter* pool_failures_ = nullptr;
  obs::Counter* pools_skipped_ = nullptr;
  obs::Counter* guardrail_rejections_ = nullptr;
  obs::Gauge* pools_published_gauge_ = nullptr;
  obs::Histogram* tick_seconds_ = nullptr;
  obs::Counter* tuning_docs_rejected_ = nullptr;
  obs::Gauge* pools_tuned_gauge_ = nullptr;
};

}  // namespace ipool::live

#endif  // IPOOL_LIVE_LIVE_CONTROL_PLANE_H_
