// The public facade of Intelligent Pooling: turns a historic cluster-request
// series into a pool-size recommendation for the next hour, combining the ML
// predictor (§5) with the SAA optimizer (§4) through either of the two
// end-to-end pipelines of §5.4:
//
//   * 2-step — forecast future demand, then run SAA on the forecast (the
//     pipeline the paper deploys: better Pareto curve at low wait times);
//   * E2E    — run SAA on history to get a historically-optimal pool-size
//     series, train the ML model on that series and forecast the pool size
//     directly.
//
// The §7.5 production-robustness strategies are included: max-filter
// smoothing of the demand before training (Eq 18), extended STABLENESS, and
// max-filter smoothing of the recommended pool size with SF = tau.
#ifndef IPOOL_CORE_RECOMMENDATION_ENGINE_H_
#define IPOOL_CORE_RECOMMENDATION_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "forecast/forecaster.h"
#include "obs/obs_context.h"
#include "solver/pool_model.h"
#include "solver/saa_optimizer.h"
#include "tsdata/time_series.h"

namespace ipool {

enum class PipelineKind {
  k2Step,
  kEndToEnd,
};

std::string PipelineKindToString(PipelineKind kind);

struct PipelineConfig {
  PipelineKind kind = PipelineKind::k2Step;
  ModelKind model = ModelKind::kSsaPlus;
  ForecastParams forecast;
  /// Pool structure + alpha' trade-off used by the SAA optimizer.
  SaaConfig saa;
  /// Recommendation length in bins (the production pipeline emits the next
  /// hour: 120 bins x 30 s).
  size_t recommendation_bins = 120;
  /// Eq 18 smoothing of the input demand before training (0 disables).
  size_t smoothing_factor_bins = 0;
  /// §7.5 strategy 3: max-filter the recommended pool sizes with SF = tau so
  /// spiky demand keeps the pool raised long enough.
  bool smooth_recommendation = false;
  /// Observability sink (optional). Create() propagates it into the nested
  /// forecast/SAA configs unless those were wired explicitly, so one
  /// assignment instruments the whole pipeline: "forecast" (fit/predict
  /// children) and "solve" spans plus per-model latency histograms.
  ObsContext obs;

  Status Validate() const;
};

struct Recommendation {
  /// Target pool size for each of the next `recommendation_bins` bins.
  std::vector<int64_t> pool_size_per_bin;
  /// The demand forecast the recommendation was derived from (empty for the
  /// E2E pipeline, which forecasts pool size directly).
  std::vector<double> predicted_demand;
  std::string model_name;
  PipelineKind pipeline = PipelineKind::k2Step;
};

class RecommendationEngine {
 public:
  static Result<RecommendationEngine> Create(const PipelineConfig& config);

  /// Runs the configured pipeline on the historic demand (per-bin request
  /// counts) and returns the pool-size recommendation for the bins
  /// immediately following the history.
  Result<Recommendation> Run(const TimeSeries& history) const;

  const PipelineConfig& config() const { return config_; }

 private:
  explicit RecommendationEngine(const PipelineConfig& config)
      : config_(config) {}

  Result<Recommendation> RunTwoStep(const TimeSeries& history) const;
  Result<Recommendation> RunEndToEnd(const TimeSeries& history) const;

  /// Creates the configured forecaster, fits it on `series` and predicts
  /// the next `recommendation_bins` bins under the "forecast" span (with
  /// "fit" and "predict" children) and the per-model fit/predict latency
  /// histograms. Stores the forecaster's name in `*model_name`.
  Result<std::vector<double>> FitAndForecast(const TimeSeries& series,
                                             std::string* model_name) const;

  PipelineConfig config_;
};

}  // namespace ipool

#endif  // IPOOL_CORE_RECOMMENDATION_ENGINE_H_
