// An append-only metric store standing in for the Kusto telemetry store
// [30]: the monitoring system records cluster-request events and pool
// health metrics here, and the ML predictor fetches its training history by
// querying a binned view. Points must be appended in non-decreasing time
// order per metric (as a real telemetry pipeline delivers them).
#ifndef IPOOL_SERVICE_TELEMETRY_STORE_H_
#define IPOOL_SERVICE_TELEMETRY_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "tsdata/time_series.h"

namespace ipool {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class TelemetryStore {
 public:
  /// Appends a point. Returns InvalidArgument if `time` is before the last
  /// point of the same metric.
  Status Record(const std::string& metric, double time, double value);

  /// Sums point values into fixed bins over [start, start+bins*interval).
  /// Metrics never written yield all-zero series (a region with no traffic
  /// is not an error).
  Result<TimeSeries> QueryBinned(const std::string& metric, double start,
                                 double interval_seconds, size_t bins) const;

  /// Sum of values in [start, end).
  double Sum(const std::string& metric, double start, double end) const;

  /// Number of points recorded for the metric.
  size_t PointCount(const std::string& metric) const;

  /// Number of points (not value sum) recorded for `metric` in [start, end).
  int64_t CountInRange(const std::string& metric, double start,
                       double end) const;

  /// Names of every metric that has been recorded, sorted.
  std::vector<std::string> Metrics() const;

  /// Most recent point time, or -infinity if none.
  double LastTime(const std::string& metric) const;

  /// Publishes the store's contents as `ipool_telemetry_*` gauges (point
  /// count, value sum and last point time per recorded metric) so obs dumps
  /// include the Kusto-stand-in's state. No-op when `registry` is null.
  void PublishTo(obs::MetricsRegistry* registry) const;

 private:
  struct Point {
    double time;
    double value;
  };
  std::map<std::string, std::vector<Point>> metrics_;
};

}  // namespace ipool

#endif  // IPOOL_SERVICE_TELEMETRY_STORE_H_
