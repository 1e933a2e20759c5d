// The forecasting interface shared by all demand predictors of §5: SSA, the
// three deep models (InceptionTime, TST, mWDN), the hybrid SSA+ and the
// no-intelligence baseline. A forecaster is fitted on a historic
// request-rate series and then asked for `horizon` future bins.
#ifndef IPOOL_FORECAST_FORECASTER_H_
#define IPOOL_FORECAST_FORECASTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "obs/obs_context.h"
#include "tsdata/time_series.h"

namespace ipool {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Human-readable model name as used in the paper's tables ("SSA+",
  /// "mWDN", ...).
  virtual std::string name() const = 0;

  /// Trains on the history. May be called repeatedly with fresh data (the
  /// production pipeline retrains every few minutes).
  virtual Status Fit(const TimeSeries& history) = 0;

  /// Predicts the `horizon` bins immediately following the fitted history.
  /// Predictions are clamped to be non-negative (they are request counts).
  virtual Result<std::vector<double>> Forecast(size_t horizon) = 0;
};

/// The models of Table 1 / Fig 5 / Fig 6.
enum class ModelKind {
  kBaseline,       // Eq 17: gamma * max(y_train)
  kSsa,            // singular spectrum analysis
  kSsaPlus,        // hybrid: SSA + shallow error-corrector net (deployed)
  kMwdn,           // multilevel wavelet decomposition network
  kTst,            // time-series transformer
  kInceptionTime,  // 1-D inception convnet
};

std::string ModelKindToString(ModelKind kind);

/// Inverse of ModelKindToString (exact paper-table names: "SSA+", "mWDN",
/// ...). InvalidArgument on anything else — parsers of persisted tuning
/// documents must reject unknown models rather than guess.
Result<ModelKind> ModelKindFromString(const std::string& name);

/// Shared hyper-parameters (paper defaults scaled to laptop budgets; see
/// EXPERIMENTS.md for the mapping).
struct ForecastParams {
  /// Input window length for deep models / SSA embedding dimension.
  size_t window = 96;
  /// Native multi-step output length of the deep models; longer forecasts
  /// iterate the model on its own output.
  size_t horizon = 48;
  /// Training epochs for deep models.
  size_t epochs = 8;
  /// Mini-batch size (gradient accumulation).
  size_t batch_size = 16;
  double learning_rate = 1e-2;
  /// Eq 12 trade-off for trainable models: > 0.5 biases toward
  /// overprediction (lower wait times).
  double alpha_prime = 0.5;
  /// Stride between consecutive training windows.
  size_t stride = 4;
  /// Stop early (patience 3 on validation loss) and restore the best
  /// parameters. Disable to measure fixed-epoch training cost.
  bool early_stopping = true;
  /// Baseline's gamma (Eq 17).
  double gamma = 1.0;
  /// SSA rank cap.
  size_t ssa_rank = 12;
  uint64_t seed = 7;
  /// Observability sink (optional): trainable models record per-epoch
  /// counters and internal training time against it.
  ObsContext obs;
  /// Execution context (optional): when a thread pool is wired in, Fit and
  /// Forecast install it as the ambient pool so the row-blocked MatMul
  /// kernels fan out. Results are bit-identical to the serial path (the
  /// determinism contract in DESIGN.md "Execution & parallelism").
  exec::ExecContext exec;

  Status Validate() const;
};

/// Factory covering every ModelKind.
Result<std::unique_ptr<Forecaster>> CreateForecaster(
    ModelKind kind, const ForecastParams& params);

}  // namespace ipool

#endif  // IPOOL_FORECAST_FORECASTER_H_
