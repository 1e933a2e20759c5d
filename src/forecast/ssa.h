// Singular Spectrum Analysis forecasting (Golyandina & Korobeynikov style),
// the traditional-ML contender of §5.1 and the base of the hybrid SSA+
// model. Pipeline: Hankel embedding -> eigendecomposition of its Gram ->
// top-r grouping -> diagonal-averaging reconstruction -> linear recurrence
// (R-)forecasting.
//
// Training (DESIGN.md "SSA training") is one cold path, run from scratch on
// every Fit: the L x K Hankel matrix is never materialized — its L x L Gram
// is built by sliding-diagonal updates (HankelGram) and decomposed by the
// dense Jacobi solve (SymmetricEigen), and the reconstruction reads the
// series directly.
#ifndef IPOOL_FORECAST_SSA_H_
#define IPOOL_FORECAST_SSA_H_

#include <string>
#include <vector>

#include "forecast/forecaster.h"

namespace ipool {

class SsaForecaster : public Forecaster {
 public:
  struct Options {
    /// Embedding window L. Must satisfy 2 <= L <= N/2 at Fit time (clamped
    /// down when the history is short).
    size_t window = 96;
    /// Keep at most this many leading components.
    size_t max_rank = 12;
    /// Keep components until this fraction of spectrum energy is captured
    /// (whichever of max_rank / energy binds first).
    double energy_threshold = 0.995;
    /// Observability sink (optional): fit-phase spans and the fit-time
    /// histogram.
    ObsContext obs;
    /// Execution context (optional): the reconstruction fans out over this
    /// pool, bit-identical to serial.
    exec::ExecContext exec;
  };

  explicit SsaForecaster(Options options) : options_(options) {}

  std::string name() const override { return "SSA"; }
  Status Fit(const TimeSeries& history) override;
  Result<std::vector<double>> Forecast(size_t horizon) override;

  /// In-sample reconstruction of the fitted series (denoised signal),
  /// exposed for the hybrid model and for tests.
  const std::vector<double>& reconstruction() const { return reconstruction_; }
  size_t chosen_rank() const { return chosen_rank_; }

 private:
  Options options_;
  bool fitted_ = false;
  double scale_ = 1.0;
  size_t effective_window_ = 0;
  size_t chosen_rank_ = 0;
  /// Linear recurrence coefficients over the last (L-1) reconstructed values.
  std::vector<double> recurrence_;
  std::vector<double> reconstruction_;  // unscaled (original units)
  double fallback_level_ = 0.0;
  bool use_fallback_ = false;
};

}  // namespace ipool

#endif  // IPOOL_FORECAST_SSA_H_
