// The troublesome region of §7.5: near-zero baseline demand with sporadic
// spikes roughly every 3 hours during working hours, irregularly timed.
// Plain forecasting misses the spikes; the paper's robustness strategies
// (max-filter the demand before training with an SF spanning the
// inter-spike gap, extend STABLENESS, max-filter the recommended pool sizes
// with SF = tau, and a small MIN POOL SIZE floor) keep the pool raised
// through the spike-prone hours while still shrinking toward zero at night.
//
// As in production, recommendations roll: the trace replays through the
// live control plane (live::Replay), which every hour retrains on the
// trailing day and publishes the next hour's schedule; day 2 is scored.
#include <cstdio>

#include "common/strings.h"
#include "core/recommendation_engine.h"
#include "live/replay.h"
#include "solver/pool_model.h"
#include "workload/demand_generator.h"

namespace {

using namespace ipool;

PoolMetrics RunRolling(bool robust, const TimeSeries& all,
                       const std::vector<double>& events, size_t eval_start) {
  const size_t bins_per_hour = 120;
  PipelineConfig config;
  config.model = ModelKind::kSsaPlus;
  config.forecast.window = 96;
  config.forecast.horizon = 48;
  config.forecast.alpha_prime = robust ? 0.95 : 0.5;
  config.saa.alpha_prime = robust ? 0.1 : 0.3;
  config.saa.pool.tau_bins = 3;
  config.saa.pool.max_pool_size = 200;
  config.recommendation_bins = bins_per_hour;
  if (robust) {
    config.smoothing_factor_bins = 360;     // S1: SF ~ inter-spike gap
    config.saa.pool.stableness_bins = 20;   // S2: 10 min stability
    config.smooth_recommendation = true;    // S3: SF = tau output filter
    config.saa.pool.min_pool_size = 2;      // Eq 10 floor for stray requests
  } else {
    config.saa.pool.stableness_bins = 10;
  }
  auto engine = RecommendationEngine::Create(config);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }

  live::ReplayConfig replay;
  replay.run_interval_seconds =
      static_cast<double>(bins_per_hour) * all.interval();
  replay.history_bins = eval_start;
  // No guardrail: its MAE limit is in requests, so it would hold exactly
  // the forecasts S1 max-filters upward on purpose.
  replay.guardrail_mae_ratio = 0.0;
  auto result = live::Replay(*engine, replay, {{all, events}});
  if (!result.ok()) {
    std::fprintf(stderr, "replay: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  const std::vector<int64_t>& applied = result->front().applied_schedule;
  std::vector<int64_t> schedule(applied.begin() + eval_start, applied.end());
  TimeSeries eval = all.Slice(eval_start, all.size());
  auto metrics = EvaluateSchedule(eval, schedule, config.saa.pool);
  return *metrics;
}

}  // namespace

int main() {
  using namespace ipool;
  WorkloadConfig workload = SpikyRegionProfile(/*seed=*/99);
  workload.duration_days = 2.0;
  auto generator = DemandGenerator::Create(workload);
  TimeSeries all = generator->GenerateBinned();
  const std::vector<double> events = generator->GenerateEvents();
  const size_t eval_start = all.size() / 2;
  std::printf("Spiky region: %.0f requests/day, max %.0f requests/bin, "
              "spikes every ~3 h in working hours\n",
              all.Sum() / 2.0, all.Max());

  PoolMetrics plain = RunRolling(/*robust=*/false, all, events, eval_start);
  PoolMetrics robust = RunRolling(/*robust=*/true, all, events, eval_start);

  CogsModel cogs;
  std::printf("\n%-26s %14s %16s\n", "", "plain", "with §7.5 fixes");
  std::printf("%-26s %13.1f%% %15.1f%%\n", "pool hit rate",
              100.0 * plain.hit_rate, 100.0 * robust.hit_rate);
  std::printf("%-26s %14.2f %16.2f\n", "avg wait (s)",
              plain.avg_wait_seconds_capped, robust.avg_wait_seconds_capped);
  std::printf("%-26s %14.1f %16.1f\n", "avg pool size", plain.avg_pool_size,
              robust.avg_pool_size);
  std::printf("%-26s %14.2f %16.2f\n", "idle COGS ($/day)",
              cogs.IdleDollars(plain.idle_cluster_seconds),
              cogs.IdleDollars(robust.idle_cluster_seconds));
  std::printf("\nThe robustness strategies trade idle time for a hit rate "
              "that stays high through\nirregular spikes (paper: hit rate -> "
              "100%% while COGS savings vs static pooling\nrose from 18%% to "
              "64%%, because the pool shrinks when demand is near zero).\n");
  return 0;
}
