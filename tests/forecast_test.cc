#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "forecast/deep_base.h"
#include "forecast/forecaster.h"
#include "forecast/models.h"
#include "forecast/ssa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsdata/metrics.h"
#include "tsdata/time_series.h"

namespace ipool {
namespace {

// A clean periodic series: sin with period 32 bins plus a trendless offset.
TimeSeries SineSeries(size_t n, double amplitude = 2.0, double offset = 4.0,
                      double period = 32.0) {
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = offset + amplitude * std::sin(2 * M_PI * static_cast<double>(i) / period);
  }
  return TimeSeries(0.0, 30.0, std::move(vals));
}

TimeSeries NoisySineSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries ts = SineSeries(n);
  for (size_t i = 0; i < n; ++i) {
    ts.value(i) = std::max(0.0, ts.value(i) + rng.Normal(0.0, 0.3));
  }
  return ts;
}

ForecastParams FastParams() {
  ForecastParams params;
  params.window = 32;
  params.horizon = 8;
  params.epochs = 3;
  params.batch_size = 8;
  params.stride = 4;
  params.seed = 5;
  return params;
}

// ---- params validation ------------------------------------------------------

TEST(ForecastParamsTest, Validation) {
  EXPECT_TRUE(ForecastParams{}.Validate().ok());
  ForecastParams p;
  p.window = 2;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.horizon = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.alpha_prime = 2.0;
  EXPECT_FALSE(p.Validate().ok());
  p = ForecastParams{};
  p.learning_rate = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

// ---- window dataset ---------------------------------------------------------

TEST(WindowDatasetTest, CutsExpectedSamples) {
  std::vector<double> series = {0, 1, 2, 3, 4, 5, 6, 7};
  auto ds = BuildWindowDataset(series, 3, 2, 1);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->inputs.size(), 4u);  // starts 0..3
  EXPECT_EQ(ds->inputs[0], (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(ds->targets[0], (std::vector<double>{3, 4}));
  EXPECT_EQ(ds->inputs[3], (std::vector<double>{3, 4, 5}));
  EXPECT_EQ(ds->targets[3], (std::vector<double>{6, 7}));
}

TEST(WindowDatasetTest, StrideSkips) {
  std::vector<double> series(20, 1.0);
  auto ds = BuildWindowDataset(series, 4, 2, 3);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->inputs.size(), 5u);  // starts 0,3,6,9,12
}

TEST(WindowDatasetTest, RejectsTooShort) {
  EXPECT_FALSE(BuildWindowDataset({1, 2, 3}, 3, 2, 1).ok());
  EXPECT_FALSE(BuildWindowDataset({1, 2, 3}, 0, 2, 1).ok());
}

// ---- baseline ----------------------------------------------------------------

TEST(BaselineTest, PredictsGammaTimesMax) {
  NoIntelligenceForecaster baseline(1.2);
  TimeSeries ts(0.0, 30.0, {1, 5, 3});
  ASSERT_TRUE(baseline.Fit(ts).ok());
  auto f = baseline.Forecast(4);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(BaselineTest, RequiresFitAndData) {
  NoIntelligenceForecaster baseline(1.0);
  EXPECT_FALSE(baseline.Forecast(3).ok());
  EXPECT_FALSE(baseline.Fit(TimeSeries(0, 30, {})).ok());
}

// ---- SSA ---------------------------------------------------------------------

TEST(SsaTest, RequiresMinimumHistory) {
  SsaForecaster ssa({});
  EXPECT_FALSE(ssa.Fit(TimeSeries(0, 30, {1, 2, 3})).ok());
  EXPECT_FALSE(ssa.Forecast(5).ok());
}

TEST(SsaTest, ReconstructionTracksCleanSignal) {
  SsaForecaster::Options options;
  options.window = 32;
  options.max_rank = 6;
  SsaForecaster ssa(options);
  TimeSeries ts = SineSeries(256);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  double err = 0.0;
  for (size_t i = 0; i < ts.size(); ++i) {
    err += std::fabs(ssa.reconstruction()[i] - ts.value(i));
  }
  err /= static_cast<double>(ts.size());
  EXPECT_LT(err, 0.05);
}

TEST(SsaTest, ForecastsCleanSineAccurately) {
  SsaForecaster::Options options;
  options.window = 48;
  options.max_rank = 6;
  SsaForecaster ssa(options);
  const size_t n = 256;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(32);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + 32);
  double mae = 0.0;
  for (size_t i = 0; i < 32; ++i) {
    mae += std::fabs((*f)[i] - truth.value(n + i));
  }
  mae /= 32.0;
  EXPECT_LT(mae, 0.15) << "SSA should extrapolate a clean periodic signal";
}

TEST(SsaTest, HandlesConstantSeries) {
  SsaForecaster ssa({});
  TimeSeries ts(0.0, 30.0, std::vector<double>(64, 5.0));
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(10);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_NEAR(v, 5.0, 0.5);
}

TEST(SsaTest, ForecastNonNegative) {
  SsaForecaster ssa({});
  TimeSeries ts = NoisySineSeries(200, 3);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(64);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_GE(v, 0.0);
}

TEST(SsaTest, ZeroHorizonYieldsEmpty) {
  SsaForecaster ssa({});
  TimeSeries ts = SineSeries(64);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto f = ssa.Forecast(0);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->empty());
}

// ---- deep models (smoke + learning) ------------------------------------------

class DeepModelTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DeepModelTest, FitsAndForecasts) {
  auto forecaster = CreateForecaster(GetParam(), FastParams());
  ASSERT_TRUE(forecaster.ok());
  TimeSeries ts = NoisySineSeries(160, 11);
  ASSERT_TRUE((*forecaster)->Fit(ts).ok());
  auto f = (*forecaster)->Forecast(20);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ(f->size(), 20u);
  for (double v : *f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 100.0);  // sane range for a series with max ~6
  }
}

TEST_P(DeepModelTest, RejectsTooShortHistory) {
  auto forecaster = CreateForecaster(GetParam(), FastParams());
  ASSERT_TRUE(forecaster.ok());
  TimeSeries ts = SineSeries(16);
  EXPECT_FALSE((*forecaster)->Fit(ts).ok());
}

TEST_P(DeepModelTest, DeterministicForSameSeed) {
  TimeSeries ts = NoisySineSeries(160, 13);
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    auto forecaster = CreateForecaster(GetParam(), FastParams());
    ASSERT_TRUE(forecaster.ok());
    ASSERT_TRUE((*forecaster)->Fit(ts).ok());
    auto f = (*forecaster)->Forecast(10);
    ASSERT_TRUE(f.ok());
    if (run == 0) {
      first = *f;
    } else {
      EXPECT_EQ(*f, first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDeepModels, DeepModelTest,
                         ::testing::Values(ModelKind::kMwdn, ModelKind::kTst,
                                           ModelKind::kInceptionTime,
                                           ModelKind::kSsaPlus),
                         [](const auto& info) {
                           std::string name = ModelKindToString(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '+'),
                                      name.end());
                           return name;
                         });

TEST(DeepModelTest, MwdnBeatsUntrainedOnPeriodicSignal) {
  // After training, mWDN should beat the naive mean prediction on a clean
  // periodic signal.
  ForecastParams params = FastParams();
  params.epochs = 30;
  params.batch_size = 4;
  params.stride = 2;
  params.horizon = 16;
  MwdnForecaster model(params);
  const size_t n = 320;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(model.Fit(ts).ok());
  // Evaluate over two full periods so phase luck cannot help either side.
  const size_t eval = 64;
  auto f = model.Forecast(eval);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + eval);
  std::vector<double> actual;
  std::vector<double> mean_pred(eval, ts.Mean());
  for (size_t i = 0; i < eval; ++i) actual.push_back(truth.value(n + i));
  const double model_mae = *Mae(actual, *f);
  const double mean_mae = *Mae(actual, mean_pred);
  EXPECT_LT(model_mae, mean_mae);
}

TEST(DeepModelTest, AlphaPrimeShiftsForecastUpward) {
  // Training with a strong underprediction penalty must produce forecasts
  // that sit above those trained with a strong overprediction penalty.
  TimeSeries ts = NoisySineSeries(240, 17);
  auto forecast_with_alpha = [&](double alpha) {
    ForecastParams params = FastParams();
    params.epochs = 10;
    params.alpha_prime = alpha;
    MwdnForecaster model(params);
    EXPECT_TRUE(model.Fit(ts).ok());
    auto f = model.Forecast(16);
    EXPECT_TRUE(f.ok());
    double mean = 0.0;
    for (double v : *f) mean += v;
    return mean / 16.0;
  };
  const double high_alpha = forecast_with_alpha(0.9);  // punish undershoot
  const double low_alpha = forecast_with_alpha(0.1);   // punish overshoot
  EXPECT_GT(high_alpha, low_alpha);
}

// ---- SSA+ hybrid -------------------------------------------------------------

TEST(SsaPlusTest, CorrectorIsTiny) {
  SsaPlusForecaster model(FastParams());
  TimeSeries ts = NoisySineSeries(240, 23);
  ASSERT_TRUE(model.Fit(ts).ok());
  // The paper says approximately 30 parameters.
  EXPECT_LE(model.corrector_parameter_count(), 40u);
  EXPECT_GE(model.corrector_parameter_count(), 15u);
}

TEST(SsaPlusTest, AlphaControlsOvershoot) {
  TimeSeries ts = NoisySineSeries(280, 29);
  auto mean_forecast = [&](double alpha) {
    ForecastParams params = FastParams();
    params.alpha_prime = alpha;
    SsaPlusForecaster model(params);
    EXPECT_TRUE(model.Fit(ts).ok());
    auto f = model.Forecast(32);
    EXPECT_TRUE(f.ok());
    double mean = 0.0;
    for (double v : *f) mean += v;
    return mean / 32.0;
  };
  EXPECT_GT(mean_forecast(0.95), mean_forecast(0.05));
}

TEST(SsaPlusTest, TracksCleanSignal) {
  ForecastParams params = FastParams();
  params.alpha_prime = 0.5;
  SsaPlusForecaster model(params);
  const size_t n = 320;
  TimeSeries ts = SineSeries(n);
  ASSERT_TRUE(model.Fit(ts).ok());
  auto f = model.Forecast(16);
  ASSERT_TRUE(f.ok());
  TimeSeries truth = SineSeries(n + 16);
  double mae = 0.0;
  for (size_t i = 0; i < 16; ++i) mae += std::fabs((*f)[i] - truth.value(n + i));
  mae /= 16.0;
  EXPECT_LT(mae, 0.8);
}

TEST(SsaTest, RankCapBinds) {
  TimeSeries ts = NoisySineSeries(256, 41);
  SsaForecaster::Options capped;
  capped.window = 32;
  capped.max_rank = 2;
  capped.energy_threshold = 0.99999;
  SsaForecaster ssa(capped);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  EXPECT_LE(ssa.chosen_rank(), 2u);
}

TEST(SsaTest, EnergyThresholdBindsBeforeRankCap) {
  TimeSeries ts = SineSeries(256);  // clean: ~3 components carry the energy
  SsaForecaster::Options options;
  options.window = 32;
  options.max_rank = 20;
  options.energy_threshold = 0.99;
  SsaForecaster ssa(options);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  EXPECT_LT(ssa.chosen_rank(), 8u);
}

TEST(SsaTest, WindowClampedForShortHistory) {
  SsaForecaster::Options options;
  options.window = 500;  // longer than n/2: must clamp, not fail
  SsaForecaster ssa(options);
  TimeSeries ts = SineSeries(64);
  EXPECT_TRUE(ssa.Fit(ts).ok());
  EXPECT_TRUE(ssa.Forecast(8).ok());
}

// ---- SSA training ------------------------------------------------------------

TEST(SsaFastPathTest, SpikeAtEndFallsBackToLevelOnBothPaths) {
  // Zeros with a single trailing spike make the Gram's only nonzero entry
  // the (L-1, L-1) corner: u = e_{L-1}, nu^2 = 1, and the recurrence is
  // degenerate. The fit must take the level-forecast fallback.
  std::vector<double> vals(16, 0.0);
  vals.back() = 100.0;
  TimeSeries ts(0.0, 30.0, vals);
  SsaForecaster::Options options;
  options.window = 8;
  SsaForecaster ssa(options);
  ASSERT_TRUE(ssa.Fit(ts).ok());
  auto forecast = ssa.Forecast(4);
  ASSERT_TRUE(forecast.ok());
  for (double v : *forecast) {
    EXPECT_NEAR(v, 100.0 / 16.0, 1e-9);  // the series mean
  }
}

TEST(SsaFastPathTest, FitMetricsAndSpansRecorded) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  SsaForecaster::Options options;
  options.window = 48;
  options.obs.metrics = &metrics;
  options.obs.tracer = &tracer;
  TimeSeries full = NoisySineSeries(400, 67);
  SsaForecaster ssa(options);
  ASSERT_TRUE(ssa.Fit(full.Slice(0, 384)).ok());
  ASSERT_TRUE(ssa.Fit(full.Slice(2, 386)).ok());

  EXPECT_EQ(
      metrics.GetHistogram("ipool_ssa_fit_seconds", {{"path", "jacobi"}})
          ->count(),
      2u);

  std::vector<std::string> names;
  for (const auto& span : tracer.FinishedSpans()) names.push_back(span.name);
  for (const char* phase :
       {"ssa.gram", "ssa.eigen", "ssa.reconstruct", "ssa.recurrence"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing span " << phase;
  }
}

TEST(DeepModelTest, EarlyStoppingRunsFewerEpochs) {
  TimeSeries ts = SineSeries(320);  // clean signal: validation converges fast
  ForecastParams with_stop = FastParams();
  with_stop.epochs = 40;
  with_stop.early_stopping = true;
  MwdnForecaster stopped(with_stop);
  ASSERT_TRUE(stopped.Fit(ts).ok());

  ForecastParams without = with_stop;
  without.early_stopping = false;
  MwdnForecaster full(without);
  ASSERT_TRUE(full.Fit(ts).ok());

  EXPECT_LT(stopped.epochs_run(), 40u);
  EXPECT_EQ(full.epochs_run(), 40u);
}

TEST(DeepModelTest, RefittingReplacesTheModel) {
  // The production pipeline retrains the same forecaster object in a loop;
  // a second Fit must fully supersede the first.
  ForecastParams params = FastParams();
  params.epochs = 40;  // enough Adam steps to pull the head to the new level
  MwdnForecaster model(params);
  TimeSeries low(0.0, 30.0, std::vector<double>(160, 1.0));
  TimeSeries high(0.0, 30.0, std::vector<double>(160, 9.0));
  ASSERT_TRUE(model.Fit(low).ok());
  ASSERT_TRUE(model.Fit(high).ok());
  auto f = model.Forecast(8);
  ASSERT_TRUE(f.ok());
  for (double v : *f) EXPECT_GT(v, 4.0);  // tracks the new level, not the old
}

// ---- factory ------------------------------------------------------------------

TEST(FactoryTest, CoversAllKindsAndNames) {
  for (ModelKind kind :
       {ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus,
        ModelKind::kMwdn, ModelKind::kTst, ModelKind::kInceptionTime}) {
    auto forecaster = CreateForecaster(kind, FastParams());
    ASSERT_TRUE(forecaster.ok()) << ModelKindToString(kind);
    EXPECT_EQ((*forecaster)->name(), ModelKindToString(kind));
  }
}

TEST(FactoryTest, RejectsBadParams) {
  ForecastParams params = FastParams();
  params.horizon = 0;
  EXPECT_FALSE(CreateForecaster(ModelKind::kSsa, params).ok());
}

}  // namespace
}  // namespace ipool
