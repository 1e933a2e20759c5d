// The concrete forecasting models compared in Table 1 / Fig 5 / Fig 6:
//   * NoIntelligenceForecaster — Eq 17 baseline, gamma * max(y_train);
//   * MwdnForecaster           — multilevel wavelet decomposition network;
//   * TstForecaster            — time-series transformer encoder;
//   * InceptionTimeForecaster  — 1-D inception convnet;
//   * SsaPlusForecaster        — the deployed hybrid: SSA + a ~30-parameter
//                                two-layer error corrector trained with the
//                                Eq 12 asymmetric loss.
//
// The deep models are deliberately small versions of their namesakes (the
// paper's point is that over-parameterized nets are too slow to retrain
// every few minutes); EXPERIMENTS.md records the scaling.
#ifndef IPOOL_FORECAST_MODELS_H_
#define IPOOL_FORECAST_MODELS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "forecast/deep_base.h"
#include "forecast/ssa.h"
#include "nn/layers.h"

namespace ipool {

/// Eq 17: a constant forecast of gamma * max(y_train).
class NoIntelligenceForecaster : public Forecaster {
 public:
  explicit NoIntelligenceForecaster(double gamma) : gamma_(gamma) {}

  std::string name() const override { return "Baseline"; }
  Status Fit(const TimeSeries& history) override;
  Result<std::vector<double>> Forecast(size_t horizon) override;

 private:
  double gamma_;
  bool fitted_ = false;
  double level_ = 0.0;
};

/// mWDN: 3 levels of learnable db4-initialized wavelet decomposition; as in
/// the original architecture, one recurrent network (LSTM) runs over each
/// frequency band (the detail series of every level plus the final
/// approximation) and their final hidden states feed the regression head,
/// together with a skip connection from the recent raw window.
class MwdnForecaster : public DeepForecasterBase {
 public:
  explicit MwdnForecaster(const ForecastParams& params)
      : DeepForecasterBase(params) {}

  std::string name() const override { return "mWDN"; }

 protected:
  void BuildModel(Rng& rng) override;
  nn::Tensor ForwardWindow(const nn::Tensor& input) const override;
  std::vector<nn::Tensor> ModelParameters() const override;

 private:
  static constexpr size_t kLevels = 3;
  static constexpr size_t kBandHidden = 8;
  std::vector<std::unique_ptr<nn::WaveletLevel>> levels_;
  /// One per detail band, plus one for the final approximation.
  std::vector<std::unique_ptr<nn::Lstm>> band_rnns_;
  std::unique_ptr<nn::Dense> head1_;
  std::unique_ptr<nn::Dense> head2_;
  size_t feature_dim_ = 0;
  size_t skip_dim_ = 0;
};

/// TST: per-step input projection + sinusoidal positional encoding + two
/// transformer encoder blocks + mean pooling + linear head.
class TstForecaster : public DeepForecasterBase {
 public:
  explicit TstForecaster(const ForecastParams& params)
      : DeepForecasterBase(params) {}

  std::string name() const override { return "TST"; }

 protected:
  void BuildModel(Rng& rng) override;
  nn::Tensor ForwardWindow(const nn::Tensor& input) const override;
  std::vector<nn::Tensor> ModelParameters() const override;

 private:
  static constexpr size_t kDModel = 16;
  static constexpr size_t kHeads = 2;
  static constexpr size_t kFfDim = 32;
  std::unique_ptr<nn::Dense> input_proj_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  std::unique_ptr<nn::Dense> head_;
  nn::Tensor positional_;  // constant
};

/// InceptionTime: two inception blocks (parallel convolutions with kernel
/// sizes 9/19/39 plus a maxpool->1x1 branch), global average pooling and a
/// linear head.
class InceptionTimeForecaster : public DeepForecasterBase {
 public:
  explicit InceptionTimeForecaster(const ForecastParams& params)
      : DeepForecasterBase(params) {}

  std::string name() const override { return "IncpT"; }

 protected:
  void BuildModel(Rng& rng) override;
  nn::Tensor ForwardWindow(const nn::Tensor& input) const override;
  std::vector<nn::Tensor> ModelParameters() const override;

 private:
  struct InceptionBlock {
    std::unique_ptr<nn::Conv1d> bottleneck;  // 1x1, null in the first block
    std::unique_ptr<nn::Conv1d> conv_small;
    std::unique_ptr<nn::Conv1d> conv_mid;
    std::unique_ptr<nn::Conv1d> conv_large;
    std::unique_ptr<nn::Conv1d> pool_proj;  // 1x1 after maxpool
  };
  static constexpr size_t kFilters = 6;  // per branch => 4*kFilters channels
  nn::Tensor ForwardBlock(const InceptionBlock& block, const nn::Tensor& x) const;

  std::vector<InceptionBlock> blocks_;
  std::unique_ptr<nn::Dense> head_;
};

/// The deployed hybrid model (§5.3): an SSA forecaster plus a shallow
/// two-layer corrector (~30 parameters) that learns the over/undershoot
/// needed to hit the target wait time, trained with the Eq 12 loss on the
/// SSA residuals.
class SsaPlusForecaster : public Forecaster {
 public:
  explicit SsaPlusForecaster(const ForecastParams& params) : params_(params) {}

  std::string name() const override { return "SSA+"; }
  Status Fit(const TimeSeries& history) override;
  Result<std::vector<double>> Forecast(size_t horizon) override;

  /// Number of trainable corrector parameters (paper: ~30).
  size_t corrector_parameter_count() const;

  /// The underlying SSA model of the last fit (null before Fit). For tests.
  const SsaForecaster* ssa() const { return ssa_ ? &*ssa_ : nullptr; }

 private:
  /// Corrector feature vector for a forecast step: the SSA prediction,
  /// time-of-day and minute-of-hour phases (scheduled jobs surge at round
  /// hours), the recent demand level at forecast time and the relative
  /// position within the horizon — all available at inference.
  static std::vector<double> Features(double ssa_pred_scaled,
                                      double time_of_day_fraction,
                                      double time_of_hour_fraction,
                                      double recent_level_scaled,
                                      double step_fraction);
  static constexpr size_t kFeatureCount = 7;

  ForecastParams params_;
  bool fitted_ = false;
  double scale_ = 1.0;
  double interval_seconds_ = kDefaultIntervalSeconds;
  double history_end_time_ = 0.0;
  std::optional<SsaForecaster> ssa_;
  std::unique_ptr<nn::Dense> corrector1_;
  std::unique_ptr<nn::Dense> corrector2_;
  /// False when the held-out validation showed the correction hurting; the
  /// model then behaves as plain SSA.
  bool use_corrector_ = true;
  double recent_level_scaled_ = 0.0;
};

}  // namespace ipool

#endif  // IPOOL_FORECAST_MODELS_H_
