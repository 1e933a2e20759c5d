#include "bench/bench_util.h"

#include <algorithm>

#include "forecast/forecaster.h"
#include "obs/export.h"

namespace ipool::bench {

void PrintPhaseBreakdown(const obs::MetricsRegistry& registry) {
  std::printf("--- per-phase breakdown "
              "-------------------------------------------\n");
  std::fputs(obs::HumanSummary(registry).c_str(), stdout);
}

std::vector<CurvePoint> ParetoFront(std::vector<CurvePoint> points) {
  std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
    if (a.metrics.avg_wait_seconds_capped !=
        b.metrics.avg_wait_seconds_capped) {
      return a.metrics.avg_wait_seconds_capped <
             b.metrics.avg_wait_seconds_capped;
    }
    return a.metrics.idle_cluster_seconds < b.metrics.idle_cluster_seconds;
  });
  std::vector<CurvePoint> front;
  double best_idle = 1e300;
  for (const CurvePoint& p : points) {
    if (p.metrics.idle_cluster_seconds < best_idle) {
      best_idle = p.metrics.idle_cluster_seconds;
      front.push_back(p);
    }
  }
  return front;
}

std::vector<std::pair<double, double>> TradeoffGridPoints(ModelKind model) {
  const bool quick = QuickMode();
  const std::vector<double> loss_alphas =
      model == ModelKind::kBaseline
          ? (quick ? std::vector<double>{0.5, 1.0}
                   : std::vector<double>{0.3, 0.6, 0.9, 1.1, 1.4})
          : (quick ? std::vector<double>{0.5, 0.9}
                   : std::vector<double>{0.5, 0.75, 0.9, 0.97, 0.99});
  const std::vector<double> saa_alphas =
      quick ? std::vector<double>{0.5, 0.1}
            : std::vector<double>{0.8, 0.5, 0.2, 0.05, 0.01, 0.002};
  std::vector<std::pair<double, double>> grid;
  grid.reserve(loss_alphas.size() * saa_alphas.size());
  for (double loss_alpha : loss_alphas) {
    for (double saa_alpha : saa_alphas) {
      grid.emplace_back(loss_alpha, saa_alpha);
    }
  }
  return grid;
}

CurvePoint EvalTradeoffPoint(ModelKind model, PipelineKind pipeline,
                             const TimeSeries& train, const TimeSeries& eval,
                             double loss_alpha, double saa_alpha) {
  const bool quick = QuickMode();
  PipelineConfig config;
  config.kind = pipeline;
  config.model = model;
  config.forecast.window = 144;  // spans > 1 hour: sees the hourly cycle
  // Long native horizon: the paper predicts 1200 steps in one shot;
  // iterating a short-horizon model over hundreds of steps compounds
  // errors.
  config.forecast.horizon = quick ? 120 : 240;
  config.forecast.epochs = quick ? 2 : 4;
  config.forecast.stride = quick ? 48 : 12;
  config.forecast.batch_size = 8;
  config.recommendation_bins = eval.size();
  config.saa.pool = EvalPool();
  config.saa.alpha_prime = saa_alpha;
  if (model == ModelKind::kBaseline) {
    config.forecast.gamma = loss_alpha;
  } else {
    config.forecast.alpha_prime = loss_alpha;
  }
  auto engine = CheckOk(RecommendationEngine::Create(config), "engine");
  auto rec = CheckOk(engine.Run(train), "pipeline");
  auto metrics = CheckOk(
      EvaluateSchedule(eval, rec.pool_size_per_bin, config.saa.pool),
      "evaluate");
  return {loss_alpha, saa_alpha, metrics};
}

std::vector<CurvePoint> SweepTradeoffGrid(ModelKind model,
                                          PipelineKind pipeline,
                                          const TimeSeries& train,
                                          const TimeSeries& eval) {
  std::vector<CurvePoint> points;
  for (const auto& [loss_alpha, saa_alpha] : TradeoffGridPoints(model)) {
    points.push_back(
        EvalTradeoffPoint(model, pipeline, train, eval, loss_alpha, saa_alpha));
  }
  return ParetoFront(std::move(points));
}

TradeoffDataset MakeTradeoffDataset(uint64_t seed) {
  WorkloadConfig workload =
      RegionNodeProfile(Region::kEastUs2, NodeSize::kMedium, seed);
  // Strong top-of-hour scheduler surges (the paper's Fig 4 workload shape):
  // a static pool must hold spike capacity permanently, a forecaster only
  // around the round hours — this is where the ML-vs-baseline gap opens.
  workload.hourly_spike_requests = 25.0;
  workload.duration_days = QuickMode() ? 1.0 : 2.0;
  auto split = MakeSplit(workload, 0.8);

  const size_t eval_bins = QuickMode() ? 240 : 480;
  TradeoffDataset dataset;
  dataset.eval = split.eval.Slice(split.eval.size() - eval_bins,
                                  split.eval.size());
  std::vector<double> pre(split.train.values());
  for (size_t i = 0; i + eval_bins < split.eval.size(); ++i) {
    pre.push_back(split.eval.value(i));
  }
  dataset.train =
      TimeSeries(split.train.start(), split.train.interval(), std::move(pre));
  return dataset;
}

}  // namespace ipool::bench
