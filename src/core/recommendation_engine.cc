#include "core/recommendation_engine.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsdata/smoothing.h"

namespace ipool {

std::string PipelineKindToString(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::k2Step:
      return "2-step";
    case PipelineKind::kEndToEnd:
      return "E2E";
  }
  return "Unknown";
}

Status PipelineConfig::Validate() const {
  IPOOL_RETURN_NOT_OK(forecast.Validate());
  IPOOL_RETURN_NOT_OK(saa.Validate());
  if (recommendation_bins == 0) {
    return Status::InvalidArgument("recommendation_bins must be >= 1");
  }
  return Status::OK();
}

Result<RecommendationEngine> RecommendationEngine::Create(
    const PipelineConfig& config) {
  IPOOL_RETURN_NOT_OK(config.Validate());
  PipelineConfig wired = config;
  wired.forecast.obs = wired.forecast.obs.OrElse(wired.obs);
  wired.saa.obs = wired.saa.obs.OrElse(wired.obs);
  return RecommendationEngine(wired);
}

namespace {

// §7.5 strategy 3: hold the pool up around spikes by max-filtering the
// recommended sizes over a tau-wide window.
obs::Histogram* ModelHistogram(const ObsContext& obs, const char* name,
                               const std::string& model) {
  return obs.metrics != nullptr
             ? obs.metrics->GetHistogram(name, {{"model", model}})
             : nullptr;
}

std::vector<int64_t> SmoothSchedule(const std::vector<int64_t>& schedule,
                                    size_t smoothing_bins, double interval) {
  if (smoothing_bins == 0) return schedule;
  std::vector<double> as_double(schedule.begin(), schedule.end());
  TimeSeries series(0.0, interval, std::move(as_double));
  TimeSeries filtered = MaxFilter(series, smoothing_bins);
  std::vector<int64_t> out(schedule.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<int64_t>(std::llround(filtered.value(i)));
  }
  return out;
}

}  // namespace

Result<Recommendation> RecommendationEngine::Run(
    const TimeSeries& history) const {
  if (history.empty()) return Status::InvalidArgument("empty history");
  switch (config_.kind) {
    case PipelineKind::k2Step:
      return RunTwoStep(history);
    case PipelineKind::kEndToEnd:
      return RunEndToEnd(history);
  }
  return Status::InvalidArgument("unknown pipeline kind");
}

Result<std::vector<double>> RecommendationEngine::FitAndForecast(
    const TimeSeries& series, std::string* model_name) const {
  IPOOL_ASSIGN_OR_RETURN(std::unique_ptr<Forecaster> forecaster,
                         CreateForecaster(config_.model, config_.forecast));
  *model_name = forecaster->name();
  obs::ScopedSpan forecast_span(config_.obs.tracer, "forecast");
  {
    obs::ScopedSpan fit_span(config_.obs.tracer, "fit");
    obs::ScopedTimer fit_timer(ModelHistogram(
        config_.obs, "ipool_forecast_fit_seconds", *model_name));
    IPOOL_RETURN_NOT_OK(forecaster->Fit(series));
  }
  obs::ScopedSpan predict_span(config_.obs.tracer, "predict");
  obs::ScopedTimer predict_timer(ModelHistogram(
      config_.obs, "ipool_forecast_predict_seconds", *model_name));
  return forecaster->Forecast(config_.recommendation_bins);
}

Result<Recommendation> RecommendationEngine::RunTwoStep(
    const TimeSeries& history) const {
  const TimeSeries training =
      config_.smoothing_factor_bins > 0
          ? MaxFilter(history, config_.smoothing_factor_bins)
          : history;

  std::string model_name;
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> predicted,
                         FitAndForecast(training, &model_name));

  const double forecast_start =
      history.start() + history.interval() * static_cast<double>(history.size());
  TimeSeries predicted_series(forecast_start, history.interval(), predicted);

  IPOOL_ASSIGN_OR_RETURN(SaaOptimizer optimizer,
                         SaaOptimizer::Create(config_.saa));
  IPOOL_ASSIGN_OR_RETURN(PoolSchedule schedule,
                         optimizer.Optimize(predicted_series));

  Recommendation rec;
  rec.pool_size_per_bin =
      config_.smooth_recommendation
          ? SmoothSchedule(schedule.pool_size_per_bin, config_.saa.pool.tau_bins,
                           history.interval())
          : schedule.pool_size_per_bin;
  rec.predicted_demand = std::move(predicted);
  rec.model_name = std::move(model_name);
  rec.pipeline = PipelineKind::k2Step;
  return rec;
}

Result<Recommendation> RecommendationEngine::RunEndToEnd(
    const TimeSeries& history) const {
  const TimeSeries training =
      config_.smoothing_factor_bins > 0
          ? MaxFilter(history, config_.smoothing_factor_bins)
          : history;

  // Step 1: historically-optimal pool size via SAA on the history.
  IPOOL_ASSIGN_OR_RETURN(SaaOptimizer optimizer,
                         SaaOptimizer::Create(config_.saa));
  IPOOL_ASSIGN_OR_RETURN(PoolSchedule historic, optimizer.Optimize(training));

  // Step 2: train the forecaster on the optimal-pool-size series and predict
  // it forward directly.
  std::vector<double> pool_series(historic.pool_size_per_bin.begin(),
                                  historic.pool_size_per_bin.end());
  TimeSeries pool_history(history.start(), history.interval(),
                          std::move(pool_series));
  std::string model_name;
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> predicted_pool,
                         FitAndForecast(pool_history, &model_name));

  std::vector<int64_t> schedule(predicted_pool.size());
  for (size_t i = 0; i < predicted_pool.size(); ++i) {
    const int64_t rounded = static_cast<int64_t>(std::llround(predicted_pool[i]));
    schedule[i] = std::clamp(rounded, config_.saa.pool.min_pool_size,
                             config_.saa.pool.max_pool_size);
  }

  Recommendation rec;
  rec.pool_size_per_bin =
      config_.smooth_recommendation
          ? SmoothSchedule(schedule, config_.saa.pool.tau_bins,
                           history.interval())
          : schedule;
  rec.model_name = std::move(model_name);
  rec.pipeline = PipelineKind::kEndToEnd;
  return rec;
}

}  // namespace ipool
