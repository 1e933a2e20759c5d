// Minimal dense linear algebra used by the SSA forecaster and the neural
// network layers. Row-major double storage; sizes here are small (hundreds),
// so clarity wins over blocking/vectorization tricks.
#ifndef IPOOL_LINALG_MATRIX_H_
#define IPOOL_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace ipool {

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from row-major initializer data; data.size() must equal
  /// rows * cols.
  static Result<Matrix> FromRowMajor(size_t rows, size_t cols,
                                     std::vector<double> data);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix Transpose() const;

  /// Returns column c as a vector.
  std::vector<double> Col(size_t c) const;
  /// Returns row r as a vector.
  std::vector<double> Row(size_t r) const;

  /// Frobenius norm.
  double Norm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B; shapes must agree.
Result<Matrix> MatMul(const Matrix& a, const Matrix& b);

/// y = A * x; x.size() must equal A.cols().
Result<std::vector<double>> MatVec(const Matrix& a,
                                   const std::vector<double>& x);

/// Dot product; sizes must agree (asserted, hot path).
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double Norm(const std::vector<double>& v);

/// Builds the L x K Hankel (trajectory) matrix of a series:
/// H(i, j) = series[i + j], with L + K - 1 == series.size().
Result<Matrix> HankelMatrix(const std::vector<double>& series, size_t window);

/// Gram matrix G = H H^T (window x window) of the Hankel trajectory matrix,
/// built WITHOUT materializing H: G(i, j) = sum_t series[i+t] * series[j+t]
/// over t in [0, K), K = series.size() - window + 1. The first row costs
/// O(window * K); every remaining entry follows the sliding identity
///   G(i+1, j+1) = G(i, j) - series[i]*series[j]
///                         + series[i+K]*series[j+K]
/// in O(1), so the whole build is O(window * K + window^2) instead of the
/// O(window^2 * K) of an explicit Gram product.
Result<Matrix> HankelGram(const std::vector<double>& series, size_t window);

}  // namespace ipool

#endif  // IPOOL_LINALG_MATRIX_H_
