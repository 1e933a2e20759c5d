// The sharded telemetry ingest store behind the serving write path (ROADMAP
// item 2): N power-of-two shards, FNV-1a metric-name hash -> shard, one
// plain TelemetryStore plus one shared_mutex per shard. Concurrent
// publishes to different metrics land on different shards and proceed in
// parallel; the live tick's per-pool snapshot (point count + last time +
// binned history) reads one shard under one shared lock, so it stays
// consistent per pool without any global mutex.
//
// Batch ingest contract (RecordBatch): the router parse-validates a whole
// PublishTelemetry batch before calling in; RecordBatch then groups points
// by shard and, per shard, validates time ordering against the store state
// BEFORE applying anything — a shard's slice of the batch lands
// all-or-nothing under a single lock acquisition. Shards are applied in
// index order and the first failing shard aborts the rest (strictly
// stronger than the old single-store path, which could leave a prefix of a
// batch applied).
//
// Per-metric semantics are exactly TelemetryStore's: appends must arrive in
// non-decreasing time order per metric; queries see points the moment the
// owning shard's lock releases.
#ifndef IPOOL_SERVICE_SHARDED_TELEMETRY_STORE_H_
#define IPOOL_SERVICE_SHARDED_TELEMETRY_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/telemetry_store.h"
#include "tsdata/time_series.h"

namespace ipool {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class ShardedTelemetryStore {
 public:
  /// One point in a RecordBatch.
  struct BatchPoint {
    std::string metric;
    double time = 0.0;
    double value = 0.0;
  };

  /// A per-pool consistent view taken under one shard lock: the live tick
  /// uses it so point_count, last_time and the binned history all describe
  /// the same instant.
  struct BinnedView {
    size_t point_count = 0;
    double last_time = 0.0;  ///< -inf when the metric has no points
    TimeSeries history;
  };

  /// `shards` is rounded up to the next power of two (minimum 1).
  explicit ShardedTelemetryStore(size_t shards = kDefaultShards);

  static constexpr size_t kDefaultShards = 16;

  /// Appends a point (locks the metric's shard). InvalidArgument if `time`
  /// is before the metric's last point.
  Status Record(const std::string& metric, double time, double value);

  /// Applies a parse-validated batch with one lock acquisition per touched
  /// shard; per-shard all-or-nothing (see file comment).
  Status RecordBatch(std::vector<BatchPoint> points);

  /// Sums point values into fixed bins over [start, start+bins*interval).
  Result<TimeSeries> QueryBinned(const std::string& metric, double start,
                                 double interval_seconds, size_t bins) const;

  /// point_count + last_time + `bins` bins ending with (and including) the
  /// newest point, all under one shard shared lock. InvalidArgument when
  /// `interval_seconds` is not positive.
  Result<BinnedView> SnapshotBinned(const std::string& metric,
                                    double interval_seconds,
                                    size_t bins) const;

  double Sum(const std::string& metric, double start, double end) const;
  size_t PointCount(const std::string& metric) const;
  int64_t CountInRange(const std::string& metric, double start,
                       double end) const;

  /// Names of every metric that has been recorded, merged across shards,
  /// sorted (same contract as TelemetryStore::Metrics).
  std::vector<std::string> Metrics() const;

  /// Most recent point time, or -infinity if none.
  double LastTime(const std::string& metric) const;

  /// Publishes every shard's contents as `ipool_telemetry_*` gauges.
  void PublishTo(obs::MetricsRegistry* registry) const;

  size_t shard_count() const { return shards_.size(); }

  /// FNV-1a(metric) & (shard_count-1). Exposed for tests.
  size_t ShardIndex(const std::string& metric) const;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    TelemetryStore store;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ipool

#endif  // IPOOL_SERVICE_SHARDED_TELEMETRY_STORE_H_
