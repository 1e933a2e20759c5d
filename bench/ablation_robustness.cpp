// §7.5 (ablation): the production-robustness strategies on the spiky
// region, added one at a time:
//   S1  max-filter the demand before ML training (Eq 18) — SF must span the
//       inter-spike gap so the pool stays raised across the spike-prone
//       hours ("fatter spikes"),
//   S2  extend STABLENESS to 10 minutes,
//   S3  max-filter the recommended pool size with SF = tau.
//
// Evaluation is rolling, as in production: the trace replays through the
// live control plane (live::Replay) that `serve` ticks. Every hour the plane
// retrains on a trailing window as long as the first half of the trace (so
// the first scored run sees all of it) and publishes the next hour's
// schedule; the second half of the applied schedule is scored.
//
// Paper: with the strategies the pool absorbs irregular spikes (hit rate ->
// ~100%) while still undercutting a static pool sized for the spikes, and
// COGS savings rose from 18% to 64% because the pool shrinks toward zero
// when demand is near zero (nights).
#include "bench/bench_util.h"
#include "live/replay.h"

namespace {

using namespace ipool;
using namespace ipool::bench;

struct StrategyConfig {
  const char* label;
  size_t smoothing_bins;  // 0 disables S1
  bool long_stableness;   // S2
  bool smooth_output;     // S3
  int64_t min_pool;       // Eq 10 floor
};

PoolMetrics RunRolling(const StrategyConfig& strategy, const TimeSeries& all,
                       const std::vector<double>& events, size_t eval_start) {
  const size_t bins_per_hour = 120;
  PipelineConfig config;
  config.model = ModelKind::kSsaPlus;
  config.forecast.window = 96;
  config.forecast.horizon = 48;
  config.forecast.alpha_prime = 0.95;
  config.saa.alpha_prime = 0.1;
  config.saa.pool = EvalPool();
  config.saa.pool.min_pool_size = strategy.min_pool;
  config.saa.pool.stableness_bins = strategy.long_stableness ? 20 : 10;
  config.recommendation_bins = bins_per_hour;
  config.smoothing_factor_bins = strategy.smoothing_bins;
  config.smooth_recommendation = strategy.smooth_output;
  auto engine = CheckOk(RecommendationEngine::Create(config), "engine");

  live::ReplayConfig replay;
  replay.run_interval_seconds =
      static_cast<double>(bins_per_hour) * all.interval();
  replay.history_bins = eval_start;
  // No guardrail: its MAE limit is in requests, so it would hold exactly
  // the forecasts S1 max-filters upward on purpose.
  replay.guardrail_mae_ratio = 0.0;
  const std::vector<int64_t> applied =
      CheckOk(live::Replay(engine, replay, {{all, events}}), "replay")
          .front()
          .applied_schedule;
  std::vector<int64_t> schedule(applied.begin() + eval_start, applied.end());
  TimeSeries eval = all.Slice(eval_start, all.size());
  return CheckOk(EvaluateSchedule(eval, schedule, config.saa.pool), "eval");
}

}  // namespace

int main() {
  using namespace ipool;
  using namespace ipool::bench;
  PrintHeader("Ablation: §7.5 robustness strategies on the spiky region",
              "Paper: strategies raise hit rate to ~100% on irregular spikes; "
              "COGS savings vs static rose 18% -> 64%.");

  WorkloadConfig workload = SpikyRegionProfile(/*seed=*/71);
  workload.duration_days = QuickMode() ? 1.0 : 2.0;
  auto generator = CheckOk(DemandGenerator::Create(workload), "workload");
  TimeSeries all = generator.GenerateBinned();
  const std::vector<double> events = generator.GenerateEvents();
  const size_t eval_start = all.size() / 2;
  TimeSeries eval = all.Slice(eval_start, all.size());

  const StrategyConfig strategies[] = {
      {"none", 0, false, false, 0},
      {"S1 max-filter (SF=30m)", 60, false, false, 0},
      {"S1 max-filter (SF=3h)", 360, false, false, 0},
      {"S1+S2 stableness 10m", 360, true, false, 0},
      {"S1+S2+S3 output filter", 360, true, true, 0},
  };

  // Static reference sized for the spikes around the clock.
  auto [static_size, static_metrics] = SmallestStaticPool(
      eval, EvalPool(),
      [](const PoolMetrics& m) { return m.hit_rate >= 0.99; });
  CogsModel cogs;
  const double static_cost =
      cogs.IdleDollars(static_metrics.idle_cluster_seconds);
  std::printf("\nStatic pool reference: N=%ld, hit %.1f%%, idle $%.2f\n",
              static_size, 100.0 * static_metrics.hit_rate, static_cost);

  std::printf("\n%-26s %10s %12s %10s %12s %14s\n", "strategies", "hit rate",
              "avg wait(s)", "avg pool", "idle $", "save vs static");
  for (const StrategyConfig& strategy : strategies) {
    PoolMetrics metrics = RunRolling(strategy, all, events, eval_start);
    const double cost = cogs.IdleDollars(metrics.idle_cluster_seconds);
    std::printf("%-26s %9.1f%% %12.2f %10.1f %12.2f %13.1f%%\n",
                strategy.label, 100.0 * metrics.hit_rate,
                metrics.avg_wait_seconds_capped, metrics.avg_pool_size, cost,
                100.0 * (1.0 - cost / static_cost));
  }
  std::printf("\nExpected: hit rate climbs monotonically as strategies are "
              "added, approaching the\npaper's ~100%%, while every row still "
              "undercuts the always-on static pool.\n");
  return 0;
}
