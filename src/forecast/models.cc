#include "forecast/models.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace ipool {

namespace {
constexpr double kSecondsPerDay = 86400.0;
}

// ---- NoIntelligenceForecaster ----------------------------------------------

Status NoIntelligenceForecaster::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("empty history");
  if (gamma_ <= 0.0) return Status::InvalidArgument("gamma must be positive");
  level_ = gamma_ * history.Max();
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> NoIntelligenceForecaster::Forecast(
    size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("baseline not fitted");
  return std::vector<double>(horizon, std::max(0.0, level_));
}

// ---- MwdnForecaster ----------------------------------------------------------

void MwdnForecaster::BuildModel(Rng& rng) {
  levels_.clear();
  band_rnns_.clear();
  for (size_t i = 0; i < kLevels; ++i) {
    levels_.push_back(std::make_unique<nn::WaveletLevel>(rng));
  }
  // One LSTM per frequency band (detail of each level + final
  // approximation), as in the original mWDN, plus a skip connection from
  // the recent raw window (the sigmoid-squashed wavelet coefficients lose
  // absolute level, which the skip restores).
  for (size_t i = 0; i < kLevels + 1; ++i) {
    band_rnns_.push_back(std::make_unique<nn::Lstm>(1, kBandHidden, rng));
  }
  const size_t w = params().window;
  skip_dim_ = std::min<size_t>(24, w);
  feature_dim_ = (kLevels + 1) * kBandHidden + skip_dim_;
  const size_t hidden = 32;
  head1_ = std::make_unique<nn::Dense>(feature_dim_, hidden, rng);
  head2_ = std::make_unique<nn::Dense>(hidden, params().horizon, rng);
}

nn::Tensor MwdnForecaster::ForwardWindow(const nn::Tensor& input) const {
  nn::Tensor x = nn::Reshape(input, {1, input.size()});
  nn::Tensor features;
  for (size_t i = 0; i < kLevels; ++i) {
    auto level = levels_[i]->Forward(x);
    // Detail band -> sequence {len, 1} -> LSTM final hidden.
    nn::Tensor detail_seq =
        nn::Reshape(level.detail, {level.detail.cols(), 1});
    nn::Tensor band = band_rnns_[i]->ForwardSequence(detail_seq);
    features = i == 0 ? band : nn::ConcatVec(features, band);
    x = level.approximation;
    if (i + 1 == kLevels) {
      nn::Tensor approx_seq = nn::Reshape(x, {x.cols(), 1});
      features = nn::ConcatVec(
          features, band_rnns_[kLevels]->ForwardSequence(approx_seq));
    }
  }
  nn::Tensor skip =
      nn::SliceVec(input, input.size() - skip_dim_, input.size());
  features = nn::ConcatVec(features, skip);
  nn::Tensor hidden = nn::Relu(head1_->Forward(features));
  return head2_->Forward(hidden);
}

std::vector<nn::Tensor> MwdnForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params;
  for (const auto& level : levels_) {
    auto p = level->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const auto& rnn : band_rnns_) {
    auto p = rnn->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const nn::Dense* d : {head1_.get(), head2_.get()}) {
    auto p = d->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

// ---- TstForecaster -----------------------------------------------------------

void TstForecaster::BuildModel(Rng& rng) {
  input_proj_ = std::make_unique<nn::Dense>(1, kDModel, rng);
  blocks_.clear();
  for (int i = 0; i < 2; ++i) {
    blocks_.push_back(
        std::make_unique<nn::TransformerBlock>(kDModel, kHeads, kFfDim, rng));
  }
  head_ = std::make_unique<nn::Dense>(kDModel, params().horizon, rng);
  positional_ = nn::SinusoidalPositionalEncoding(params().window, kDModel);
}

nn::Tensor TstForecaster::ForwardWindow(const nn::Tensor& input) const {
  const size_t w = input.size();
  nn::Tensor steps = nn::Reshape(input, {w, 1});
  nn::Tensor embedded = input_proj_->ForwardRows(steps);  // {w, d}
  embedded = nn::Add(embedded, positional_);
  for (const auto& block : blocks_) embedded = block->Forward(embedded);
  // Mean over time steps: transpose to {d, w}, average each row.
  nn::Tensor pooled = nn::MeanRows(nn::Transpose(embedded));  // {d}
  return head_->Forward(pooled);
}

std::vector<nn::Tensor> TstForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params = input_proj_->Parameters();
  for (const auto& block : blocks_) {
    auto p = block->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  auto p = head_->Parameters();
  params.insert(params.end(), p.begin(), p.end());
  return params;
}

// ---- InceptionTimeForecaster -------------------------------------------------

void InceptionTimeForecaster::BuildModel(Rng& rng) {
  blocks_.clear();
  const size_t channels = 4 * kFilters;
  for (int i = 0; i < 2; ++i) {
    InceptionBlock block;
    const size_t c_in = i == 0 ? 1 : channels;
    size_t branch_in = c_in;
    if (i > 0) {
      // Bottleneck keeps the parameter count down (as in InceptionTime).
      block.bottleneck = std::make_unique<nn::Conv1d>(c_in, kFilters, 1, rng);
      branch_in = kFilters;
    }
    block.conv_small = std::make_unique<nn::Conv1d>(branch_in, kFilters, 9, rng);
    block.conv_mid = std::make_unique<nn::Conv1d>(branch_in, kFilters, 19, rng);
    block.conv_large = std::make_unique<nn::Conv1d>(branch_in, kFilters, 39, rng);
    block.pool_proj = std::make_unique<nn::Conv1d>(c_in, kFilters, 1, rng);
    blocks_.push_back(std::move(block));
  }
  head_ = std::make_unique<nn::Dense>(channels, params().horizon, rng);
}

nn::Tensor InceptionTimeForecaster::ForwardBlock(const InceptionBlock& block,
                                                 const nn::Tensor& x) const {
  nn::Tensor branch_in = x;
  if (block.bottleneck) branch_in = block.bottleneck->Forward(x);
  nn::Tensor small = block.conv_small->Forward(branch_in);
  nn::Tensor mid = block.conv_mid->Forward(branch_in);
  nn::Tensor large = block.conv_large->Forward(branch_in);
  nn::Tensor pooled = block.pool_proj->Forward(nn::MaxPool1dSame(x, 3));
  nn::Tensor merged = nn::ConcatRows(nn::ConcatRows(small, mid),
                                     nn::ConcatRows(large, pooled));
  return nn::Relu(merged);
}

nn::Tensor InceptionTimeForecaster::ForwardWindow(
    const nn::Tensor& input) const {
  nn::Tensor x = nn::Reshape(input, {1, input.size()});
  for (const auto& block : blocks_) x = ForwardBlock(block, x);
  nn::Tensor pooled = nn::MeanRows(x);  // global average pooling -> {channels}
  return head_->Forward(pooled);
}

std::vector<nn::Tensor> InceptionTimeForecaster::ModelParameters() const {
  std::vector<nn::Tensor> params;
  auto absorb = [&params](const nn::Conv1d* conv) {
    if (conv == nullptr) return;
    auto p = conv->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  for (const auto& block : blocks_) {
    absorb(block.bottleneck.get());
    absorb(block.conv_small.get());
    absorb(block.conv_mid.get());
    absorb(block.conv_large.get());
    absorb(block.pool_proj.get());
  }
  auto p = head_->Parameters();
  params.insert(params.end(), p.begin(), p.end());
  return params;
}

// ---- SsaPlusForecaster -------------------------------------------------------

std::vector<double> SsaPlusForecaster::Features(double ssa_pred_scaled,
                                                double time_of_day_fraction,
                                                double time_of_hour_fraction,
                                                double recent_level_scaled,
                                                double step_fraction) {
  return {ssa_pred_scaled,
          std::sin(2 * M_PI * time_of_day_fraction),
          std::cos(2 * M_PI * time_of_day_fraction),
          std::sin(2 * M_PI * time_of_hour_fraction),
          std::cos(2 * M_PI * time_of_hour_fraction),
          recent_level_scaled,
          step_fraction};
}

size_t SsaPlusForecaster::corrector_parameter_count() const {
  size_t count = 0;
  for (const nn::Dense* d : {corrector1_.get(), corrector2_.get()}) {
    if (d == nullptr) continue;
    for (const nn::Tensor& p : d->Parameters()) count += p.size();
  }
  return count;
}

Status SsaPlusForecaster::Fit(const TimeSeries& history) {
  IPOOL_RETURN_NOT_OK(params_.Validate());
  const size_t n = history.size();
  if (n < 64) {
    return Status::InvalidArgument(
        StrFormat("SSA+ needs at least 64 points, got %zu", n));
  }
  scale_ = std::max(1.0, history.Max());
  interval_seconds_ = history.interval();
  history_end_time_ =
      history.start() + history.interval() * static_cast<double>(n);

  // Collect (ssa prediction, truth, time-of-day) triples by fitting SSA on
  // growing prefixes and forecasting the next chunk — the residuals teach
  // the corrector the systematic over/undershoot of SSA on this workload.
  SsaForecaster::Options ssa_options;
  ssa_options.window = params_.window;
  ssa_options.max_rank = params_.ssa_rank;
  ssa_options.exec = params_.exec;

  struct Sample {
    std::vector<double> features;
    double ssa_pred_scaled;
    double truth_scaled;
  };
  std::vector<Sample> samples;
  constexpr size_t kAnchors = 8;
  const size_t first_anchor = std::max<size_t>(n / 2, 32);
  const size_t chunk = std::min(params_.horizon, n / 10 + 1);
  for (size_t a = 0; a < kAnchors; ++a) {
    const size_t anchor =
        first_anchor + a * std::max<size_t>(1, (n - first_anchor - chunk) /
                                                   std::max<size_t>(1, kAnchors - 1));
    if (anchor + 1 >= n) break;
    SsaForecaster ssa(ssa_options);
    Status fit = ssa.Fit(history.Slice(0, anchor));
    if (!fit.ok()) continue;
    const size_t steps = std::min(chunk, n - anchor);
    auto forecast = ssa.Forecast(steps);
    if (!forecast.ok()) continue;
    // Demand level over the window preceding the anchor, known at forecast
    // time.
    const size_t lookback = std::min<size_t>(anchor, 20);
    double recent = 0.0;
    for (size_t b = anchor - lookback; b < anchor; ++b) {
      recent += history.value(b);
    }
    recent /= static_cast<double>(std::max<size_t>(1, lookback)) * scale_;
    for (size_t i = 0; i < steps; ++i) {
      const double t = history.TimeAt(anchor + i);
      const double tod = std::fmod(t, kSecondsPerDay) / kSecondsPerDay;
      const double toh = std::fmod(t, 3600.0) / 3600.0;
      Sample s;
      s.ssa_pred_scaled = (*forecast)[i] / scale_;
      s.truth_scaled = history.value(anchor + i) / scale_;
      s.features = Features(s.ssa_pred_scaled, tod, toh, recent,
                            static_cast<double>(i) /
                                static_cast<double>(std::max<size_t>(1, steps)));
      samples.push_back(std::move(s));
    }
  }
  if (samples.empty()) {
    return Status::Internal("SSA+ could not assemble corrector samples");
  }

  // Shallow corrector: 7 features -> 4 hidden -> 1 correction (37 params).
  // The trailing 25% of samples are held out to validate that the learned
  // correction actually helps; if it does not, the correction is disabled
  // and SSA+ degrades gracefully to plain SSA (a §7.5-style guardrail).
  Rng rng(params_.seed);
  corrector1_ = std::make_unique<nn::Dense>(kFeatureCount, 4, rng);
  corrector2_ = std::make_unique<nn::Dense>(4, 1, rng);
  std::vector<nn::Tensor> parameters =
      nn::CollectParameters({corrector1_.get(), corrector2_.get()});
  nn::Adam adam(parameters, 0.03);

  const size_t num_train = std::max<size_t>(1, samples.size() * 3 / 4);
  const size_t corrector_epochs = std::max<size_t>(params_.epochs * 5, 60);
  for (size_t epoch = 0; epoch < corrector_epochs; ++epoch) {
    adam.ZeroGrad();
    for (size_t i = 0; i < num_train; ++i) {
      const Sample& s = samples[i];
      nn::Tensor features = nn::Tensor::FromVector(s.features);
      nn::Tensor delta =
          corrector2_->Forward(nn::Relu(corrector1_->Forward(features)));
      nn::Tensor corrected = nn::AddScalar(delta, s.ssa_pred_scaled);
      nn::Tensor target = nn::Tensor::FromVector({s.truth_scaled});
      nn::Tensor loss =
          nn::AsymmetricLoss(corrected, target, params_.alpha_prime);
      IPOOL_RETURN_NOT_OK(loss.Backward());
    }
    const double inv = 1.0 / static_cast<double>(num_train);
    for (nn::Tensor& p : parameters) {
      for (double& g : p.mutable_grad()) g *= inv;
    }
    adam.Step();
  }

  // Validation gate over the held-out tail.
  double corrected_loss = 0.0;
  double raw_loss = 0.0;
  size_t num_val = 0;
  for (size_t i = num_train; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    nn::Tensor features = nn::Tensor::FromVector(s.features);
    nn::Tensor delta =
        corrector2_->Forward(nn::Relu(corrector1_->Forward(features)));
    const double corrected = s.ssa_pred_scaled + delta.scalar();
    auto pinball = [&](double pred) {
      const double diff = s.truth_scaled - pred;
      return diff > 0 ? params_.alpha_prime * diff
                      : -(1.0 - params_.alpha_prime) * diff;
    };
    corrected_loss += pinball(corrected);
    raw_loss += pinball(s.ssa_pred_scaled);
    ++num_val;
  }
  // Engage the correction only when it beats raw SSA by a clear margin on
  // held-out data; marginal corrections are noise and are dropped.
  use_corrector_ = num_val > 0 && corrected_loss <= 0.97 * raw_loss;

  // Final SSA over the full history for inference, plus the recent level
  // feature frozen at the end of the history.
  SsaForecaster::Options final_options = ssa_options;
  final_options.obs = params_.obs;
  ssa_.emplace(final_options);
  IPOOL_RETURN_NOT_OK(ssa_->Fit(history));
  const size_t lookback = std::min<size_t>(n, 20);
  recent_level_scaled_ = 0.0;
  for (size_t b = n - lookback; b < n; ++b) {
    recent_level_scaled_ += history.value(b);
  }
  recent_level_scaled_ /= static_cast<double>(lookback) * scale_;
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> SsaPlusForecaster::Forecast(size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("SSA+ not fitted");
  IPOOL_ASSIGN_OR_RETURN(std::vector<double> base, ssa_->Forecast(horizon));
  if (!use_corrector_) {
    return base;
  }
  std::vector<double> out(horizon);
  for (size_t i = 0; i < horizon; ++i) {
    const double t =
        history_end_time_ + interval_seconds_ * static_cast<double>(i);
    const double tod = std::fmod(t, kSecondsPerDay) / kSecondsPerDay;
    const double toh = std::fmod(t, 3600.0) / 3600.0;
    nn::Tensor features = nn::Tensor::FromVector(
        Features(base[i] / scale_, tod, toh, recent_level_scaled_,
                 static_cast<double>(i) /
                     static_cast<double>(std::max<size_t>(1, horizon))));
    nn::Tensor delta =
        corrector2_->Forward(nn::Relu(corrector1_->Forward(features)));
    out[i] = std::max(0.0, base[i] + delta.scalar() * scale_);
  }
  return out;
}

// ---- factory -----------------------------------------------------------------

std::string ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kBaseline:
      return "Baseline";
    case ModelKind::kSsa:
      return "SSA";
    case ModelKind::kSsaPlus:
      return "SSA+";
    case ModelKind::kMwdn:
      return "mWDN";
    case ModelKind::kTst:
      return "TST";
    case ModelKind::kInceptionTime:
      return "IncpT";
  }
  return "Unknown";
}

Result<ModelKind> ModelKindFromString(const std::string& name) {
  for (ModelKind kind :
       {ModelKind::kBaseline, ModelKind::kSsa, ModelKind::kSsaPlus,
        ModelKind::kMwdn, ModelKind::kTst, ModelKind::kInceptionTime}) {
    if (name == ModelKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown model kind: " + name);
}

Result<std::unique_ptr<Forecaster>> CreateForecaster(
    ModelKind kind, const ForecastParams& params) {
  IPOOL_RETURN_NOT_OK(params.Validate());
  switch (kind) {
    case ModelKind::kBaseline:
      return std::unique_ptr<Forecaster>(
          new NoIntelligenceForecaster(params.gamma));
    case ModelKind::kSsa: {
      SsaForecaster::Options options;
      options.window = params.window;
      options.max_rank = params.ssa_rank;
      options.obs = params.obs;
      options.exec = params.exec;
      return std::unique_ptr<Forecaster>(new SsaForecaster(options));
    }
    case ModelKind::kSsaPlus:
      return std::unique_ptr<Forecaster>(new SsaPlusForecaster(params));
    case ModelKind::kMwdn:
      return std::unique_ptr<Forecaster>(new MwdnForecaster(params));
    case ModelKind::kTst:
      return std::unique_ptr<Forecaster>(new TstForecaster(params));
    case ModelKind::kInceptionTime:
      return std::unique_ptr<Forecaster>(new InceptionTimeForecaster(params));
  }
  return Status::InvalidArgument("unknown model kind");
}

}  // namespace ipool
