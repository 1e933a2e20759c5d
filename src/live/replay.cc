#include "live/replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/strings.h"
#include "live/live_control_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/recommendation_io.h"
#include "service/sharded_telemetry_store.h"

namespace ipool::live {

Status ReplayConfig::Validate() const {
  if (!(run_interval_seconds > 0.0)) {
    return Status::InvalidArgument("run interval must be positive");
  }
  if (!(recommendation_ttl_seconds > 0.0)) {
    return Status::InvalidArgument("recommendation TTL must be positive");
  }
  if (default_pool_size < 0) {
    return Status::InvalidArgument("default pool size must be >= 0");
  }
  return sim.Validate();
}

std::optional<int64_t> PoolTarget(
    const Result<ShardedDocumentStore::Document>& doc, double now,
    double ttl_seconds) {
  if (!doc.ok() || now - doc->updated_at > ttl_seconds) return std::nullopt;
  auto stored = ParseRecommendation(doc->value);
  if (!stored.ok()) return std::nullopt;
  return stored->TargetAt(now);
}

Result<std::vector<ReplayResult>> Replay(
    const RecommendationEngine& engine, const ReplayConfig& config,
    const std::vector<ReplayPool>& pools,
    const std::function<bool(size_t)>& fail_run) {
  IPOOL_RETURN_NOT_OK(config.Validate());
  if (pools.empty()) return Status::InvalidArgument("no pools to replay");
  const TimeSeries& grid = pools.front().demand;
  if (grid.empty()) return Status::InvalidArgument("empty demand");
  for (const ReplayPool& pool : pools) {
    if (!pool.demand.SameShape(grid) || pool.demand.start() != grid.start()) {
      return Status::InvalidArgument(
          "every pool must share the first pool's bin grid");
    }
  }
  obs::ScopedSpan replay_span(config.obs.tracer, "live.replay");

  // The plane's clock is trace time; a tick at `now` sees every bin before
  // it. The first run may come after fewer bins than serve's history floor,
  // so any published point makes a pool.
  double now = grid.start();
  LiveControlPlaneConfig plane_config;
  plane_config.bin_interval_seconds = grid.interval();
  plane_config.history_bins = config.history_bins;
  plane_config.min_history_points = 1;
  plane_config.warm_refit = config.warm_refit;
  plane_config.guardrail_mae_ratio = config.guardrail_mae_ratio;
  plane_config.exec = config.exec;
  plane_config.obs = config.obs;
  plane_config.clock = [&now] { return now; };
  ShardedTelemetryStore telemetry(1);
  ShardedDocumentStore documents(1);
  IPOOL_ASSIGN_OR_RETURN(
      std::unique_ptr<LiveControlPlane> plane,
      LiveControlPlane::Create(&engine, &telemetry, &documents,
                               plane_config));

  const size_t num_bins = grid.size();
  std::vector<std::string> keys(pools.size());
  std::vector<TimeSeries> counts;
  std::vector<ReplayResult> results(pools.size());
  for (size_t i = 0; i < pools.size(); ++i) {
    keys[i] = StrFormat("pool%zu", i);
    counts.push_back(BinEvents(pools[i].request_events, grid.start(),
                               grid.interval(), num_bins));
    results[i].applied_schedule.resize(num_bins);
  }

  // Runs land on every bins_per_run-th bin. The quotient is range-checked
  // as a double: a run interval past the trace's end never ticks.
  const double run_bins = config.run_interval_seconds / grid.interval();
  const size_t bins_per_run =
      run_bins >= static_cast<double>(num_bins)
          ? num_bins
          : std::max<size_t>(1, static_cast<size_t>(run_bins));
  size_t runs = 0;
  for (size_t bin = 0; bin < num_bins; ++bin) {
    now = grid.TimeAt(bin);
    if (bin > 0) {
      for (size_t i = 0; i < pools.size(); ++i) {
        IPOOL_RETURN_NOT_OK(
            telemetry.Record(plane_config.demand_metric_prefix + keys[i],
                             grid.TimeAt(bin - 1), counts[i].value(bin - 1)));
      }
      if (bin % bins_per_run == 0) {
        if (fail_run && fail_run(runs)) plane->InjectFailures(pools.size());
        ++runs;
        plane->TickOnce();
      }
    }
    for (size_t i = 0; i < pools.size(); ++i) {
      const std::optional<int64_t> target = PoolTarget(
          documents.Get(keys[i]), now, config.recommendation_ttl_seconds);
      results[i].applied_schedule[bin] =
          target.value_or(config.default_pool_size);
      results[i].fallback_bins += target.has_value() ? 0 : 1;
    }
  }
  telemetry.PublishTo(config.obs.metrics);

  SimConfig sim_config = config.sim;
  sim_config.obs = sim_config.obs.OrElse(config.obs);
  IPOOL_ASSIGN_OR_RETURN(PoolSimulator simulator,
                         PoolSimulator::Create(sim_config));
  const double horizon = grid.TimeAt(num_bins - 1) + grid.interval();
  const std::map<std::string, LiveControlPlane::PoolState> states =
      plane->PoolStates();
  for (size_t i = 0; i < pools.size(); ++i) {
    ReplayResult& result = results[i];
    result.pipeline_runs = runs;
    if (auto it = states.find(keys[i]); it != states.end()) {
      result.pipeline_failures = it->second.failures;
      result.guardrail_rejections = it->second.guardrail_rejections;
    }
    if (config.obs.metrics != nullptr) {
      config.obs.metrics->GetCounter("ipool_replay_fallback_bins_total")
          ->Add(result.fallback_bins);
    }
    IPOOL_ASSIGN_OR_RETURN(
        result.sim, simulator.Run(pools[i].request_events,
                                  result.applied_schedule, grid.interval(),
                                  horizon));
  }
  return results;
}

}  // namespace ipool::live
