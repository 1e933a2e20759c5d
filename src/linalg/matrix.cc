#include "linalg/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"
#include "exec/thread_pool.h"
#include "linalg/simd_kernels.h"

namespace ipool {

Result<Matrix> Matrix::FromRowMajor(size_t rows, size_t cols,
                                    std::vector<double> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument(
        StrFormat("data size %zu != %zu x %zu", data.size(), rows, cols));
  }
  Matrix m(rows, cols);
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

std::vector<double> Matrix::Col(size_t c) const {
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

std::vector<double> Matrix::Row(size_t r) const {
  return std::vector<double>(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                             data_.begin() + static_cast<ptrdiff_t>((r + 1) * cols_));
}

double Matrix::Norm() const {
  double total = 0.0;
  for (double v : data_) total += v * v;
  return std::sqrt(total);
}

Result<Matrix> MatMul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        StrFormat("matmul shape mismatch: (%zux%zu) x (%zux%zu)", a.rows(),
                  a.cols(), b.rows(), b.cols()));
  }
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both B and C. Row
  // blocks of C are independent, so the outer loop fans out over the ambient
  // pool (exec::Current(), serial by default); each task owns its rows and
  // the per-element accumulation order is fixed, keeping results
  // bit-identical to the serial loop at any thread count.
  const size_t flops_per_row = a.cols() * b.cols();
  exec::ParallelFor(
      exec::Current(), 0, a.rows(),
      [&](size_t lo, size_t hi) {
        const double* bdata = b.data().data();
        for (size_t i = lo; i < hi; ++i) {
          double* crow = c.data().data() + i * b.cols();
          for (size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            // axpy microkernel: one multiply + one add per element, so the
            // vector path stays bit-identical to this loop's history.
            simd::MulAdd(crow, bdata + k * b.cols(), aik, b.cols());
          }
        }
      },
      {exec::Chunking::kDynamic,
       std::max<size_t>(1, (16 * 1024) / std::max<size_t>(1, flops_per_row))});
  return c;
}

Result<std::vector<double>> MatVec(const Matrix& a,
                                   const std::vector<double>& x) {
  if (a.cols() != x.size()) {
    return Status::InvalidArgument(
        StrFormat("matvec shape mismatch: (%zux%zu) x %zu", a.rows(), a.cols(),
                  x.size()));
  }
  std::vector<double> y(a.rows(), 0.0);
  const double* adata = a.data().data();
  for (size_t i = 0; i < a.rows(); ++i) {
    y[i] = simd::Dot(adata + i * a.cols(), x.data(), a.cols());
  }
  return y;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), a.size());
}

double Norm(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

Result<Matrix> HankelMatrix(const std::vector<double>& series, size_t window) {
  if (window == 0 || window > series.size()) {
    return Status::InvalidArgument(
        StrFormat("window %zu invalid for series of length %zu", window,
                  series.size()));
  }
  const size_t k = series.size() - window + 1;
  Matrix h(window, k);
  for (size_t i = 0; i < window; ++i) {
    for (size_t j = 0; j < k; ++j) {
      h(i, j) = series[i + j];
    }
  }
  return h;
}

Result<Matrix> HankelGram(const std::vector<double>& series, size_t window) {
  if (window == 0 || window > series.size()) {
    return Status::InvalidArgument(
        StrFormat("window %zu invalid for series of length %zu", window,
                  series.size()));
  }
  const size_t k = series.size() - window + 1;
  Matrix g(window, window);
  // First row: window dot products of length K against the leading lag.
  for (size_t j = 0; j < window; ++j) {
    const double acc = simd::Dot(series.data(), series.data() + j, k);
    g(0, j) = acc;
    g(j, 0) = acc;
  }
  // Slide each super-diagonal down-right from its first-row seed; mirror
  // into the lower triangle.
  for (size_t j = 0; j < window; ++j) {
    for (size_t i = 1; i + j < window; ++i) {
      const double v = g(i - 1, i - 1 + j) - series[i - 1] * series[i - 1 + j] +
                       series[i - 1 + k] * series[i - 1 + j + k];
      g(i, i + j) = v;
      g(i + j, i) = v;
    }
  }
  return g;
}

}  // namespace ipool
