#include "forecast/ssa.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "exec/scratch.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipool {

Status SsaForecaster::Fit(const TimeSeries& history) {
  const auto fit_start = std::chrono::steady_clock::now();
  obs::MetricsRegistry* metrics = options_.obs.metrics;
  obs::Tracer* tracer = options_.obs.tracer;

  const size_t n = history.size();
  if (n < 8) {
    return Status::InvalidArgument(
        StrFormat("SSA needs at least 8 points, got %zu", n));
  }
  // Clamp the embedding window into [2, n/2].
  effective_window_ = std::clamp<size_t>(options_.window, 2, n / 2);
  const size_t len = effective_window_;
  const size_t k = n - len + 1;

  // Install the configured pool as the ambient one so the reconstruction
  // fans out; leave a caller-installed ambient pool in place when none is
  // configured here.
  std::optional<exec::ScopedPool> ambient;
  if (options_.exec.enabled()) ambient.emplace(options_.exec);

  // Normalize for numeric stability of the eigensolve.
  scale_ = std::max(1.0, history.Max());
  const std::vector<double>& raw = history.values();
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = raw[i] / scale_;

  fallback_level_ = 0.0;
  for (double v : y) fallback_level_ += v;
  fallback_level_ /= static_cast<double>(n);
  use_fallback_ = false;

  // ---- Phase 1: Gram, Hankel-free: the sliding-diagonal HankelGram is
  // O(L*K + L^2) and the L x K trajectory matrix never exists. It is built
  // in raw units and then scaled by 1/scale^2 (eigenvectors are
  // scale-invariant); building it from the scaled series `y` instead would
  // round differently and move forecasts in the last bits.
  Matrix gram_scaled;
  {
    obs::ScopedSpan span(tracer, "ssa.gram");
    IPOOL_ASSIGN_OR_RETURN(gram_scaled, HankelGram(raw, len));
    const double inv_scale2 = 1.0 / (scale_ * scale_);
    for (double& g : gram_scaled.data()) g *= inv_scale2;
  }

  // ---- Phase 2: dense Jacobi eigensolve of the L x L Gram.
  std::vector<double> eigvals;
  Matrix eigvecs;
  {
    obs::ScopedSpan span(tracer, "ssa.eigen");
    IPOOL_ASSIGN_OR_RETURN(EigenDecomposition eig,
                           SymmetricEigen(gram_scaled));
    eigvals = std::move(eig.values);
    eigvecs = std::move(eig.vectors);
  }

  // Pick rank: top components until the energy threshold, capped. Total
  // spectrum energy is the exact Gram trace (the sum of ALL sigma^2).
  double total_energy = 0.0;
  for (size_t i = 0; i < len; ++i) total_energy += gram_scaled(i, i);
  size_t rank = 0;
  double captured = 0.0;
  while (rank < len && rank < options_.max_rank &&
         captured < options_.energy_threshold * total_energy) {
    captured += std::max(eigvals[rank], 0.0);
    ++rank;
  }
  rank = std::max<size_t>(rank, 1);
  chosen_rank_ = rank;

  // ---- Phase 3: rank-major Hankel-free reconstruction. With u_r the left
  // singular vectors, sigma_r u_r v_r^T == u_r w_r^T for w_r = H^T u_r, and
  // w_r[j] = sum_i y[i+j] u_r[i] needs only the series. Diagonal averaging
  // then reads W back per output bin. Both loops fan out over the ambient
  // pool; every element is computed independently in a fixed r-then-i
  // order, so results are bit-identical at any thread count (the PR-2
  // determinism contract).
  {
    obs::ScopedSpan span(tracer, "ssa.reconstruct");
    Matrix w(rank, k);
    exec::ParallelFor(
        exec::Current(), 0, rank,
        [&](size_t lo, size_t hi) {
          // Column gather reuses per-thread scratch across chunk iterations.
          exec::ScratchScope scratch;
          double* u = scratch.Doubles(len);
          for (size_t r = lo; r < hi; ++r) {
            for (size_t i = 0; i < len; ++i) u[i] = eigvecs(i, r);
            double* wrow = w.data().data() + r * k;
            for (size_t j = 0; j < k; ++j) {
              wrow[j] = simd::Dot(y.data() + j, u, len);
            }
          }
        },
        {exec::Chunking::kDynamic, 1});
    reconstruction_.assign(n, 0.0);
    const size_t eig_cols = eigvecs.cols();
    const double* eig_data = eigvecs.data().data();
    const double* w_data = w.data().data();
    exec::ParallelFor(
        exec::Current(), 0, n,
        [&](size_t lo, size_t hi) {
          for (size_t d = lo; d < hi; ++d) {
            const size_t i0 = d >= k ? d - k + 1 : 0;
            const size_t i1 = std::min(len - 1, d);
            // Anti-diagonal d pairs the eigvec column (strided, row-major)
            // with the W row walked backwards from d - i0 — the
            // StridedRevDot shape, vectorized as gather + reversed load.
            const size_t span = i1 - i0 + 1;
            double acc = 0.0;
            for (size_t r = 0; r < rank; ++r) {
              acc += simd::StridedRevDot(eig_data + i0 * eig_cols + r,
                                         eig_cols,
                                         w_data + r * k + (d - i0), span);
            }
            reconstruction_[d] =
                (acc / static_cast<double>(span)) * scale_;
          }
        },
        {exec::Chunking::kDynamic, 64});
  }

  // ---- Phase 4: linear recurrence from the left singular vectors:
  // R = (1 / (1 - nu^2)) * sum_r pi_r * P_r^flat, with pi_r the last
  // coordinate of u_r and P_r^flat its first L-1 coordinates.
  {
    obs::ScopedSpan span(tracer, "ssa.recurrence");
    double nu2 = 0.0;
    for (size_t r = 0; r < rank; ++r) {
      const double pi = eigvecs(len - 1, r);
      nu2 += pi * pi;
    }
    if (nu2 >= 1.0 - 1e-9) {
      // Degenerate recurrence (the series is essentially captured by the
      // last embedding coordinate); fall back to level forecasting rather
      // than emit garbage — the robustness guardrail of §7.5 in miniature.
      use_fallback_ = true;
      recurrence_.clear();
    } else {
      recurrence_.assign(len - 1, 0.0);
      for (size_t r = 0; r < rank; ++r) {
        const double pi = eigvecs(len - 1, r);
        if (pi == 0.0) continue;
        for (size_t i = 0; i + 1 < len; ++i) {
          recurrence_[i] += pi * eigvecs(i, r);
        }
      }
      const double inv = 1.0 / (1.0 - nu2);
      for (double& c : recurrence_) c *= inv;
    }
  }
  fitted_ = true;

  if (metrics != nullptr) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fit_start)
            .count();
    metrics->GetHistogram("ipool_ssa_fit_seconds", {{"path", "jacobi"}})
        ->Observe(seconds);
  }
  return Status::OK();
}

Result<std::vector<double>> SsaForecaster::Forecast(size_t horizon) {
  if (!fitted_) return Status::FailedPrecondition("SSA not fitted");
  if (horizon == 0) return std::vector<double>{};

  std::vector<double> out;
  out.reserve(horizon);
  if (use_fallback_) {
    out.assign(horizon, std::max(0.0, fallback_level_ * scale_));
    return out;
  }

  const size_t len = effective_window_;
  // Rolling buffer of the last L-1 values in scaled units.
  std::vector<double> tail(len - 1);
  const size_t n = reconstruction_.size();
  for (size_t i = 0; i < len - 1; ++i) {
    tail[i] = reconstruction_[n - (len - 1) + i] / scale_;
  }
  for (size_t h = 0; h < horizon; ++h) {
    double next = 0.0;
    for (size_t i = 0; i + 1 < len; ++i) next += recurrence_[i] * tail[i];
    // Guard against numerical blow-up of an unstable recurrence: clamp to a
    // generous multiple of the observed range.
    next = std::clamp(next, -10.0, 10.0);
    out.push_back(std::max(0.0, next * scale_));
    std::rotate(tail.begin(), tail.begin() + 1, tail.end());
    tail.back() = next;
  }
  return out;
}

}  // namespace ipool
