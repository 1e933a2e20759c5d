#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"

namespace ipool {

Result<EigenDecomposition> SymmetricEigen(const Matrix& input,
                                          size_t max_sweeps, double tol) {
  if (input.rows() != input.cols()) {
    return Status::InvalidArgument(
        StrFormat("SymmetricEigen requires square matrix, got %zux%zu",
                  input.rows(), input.cols()));
  }
  const size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::Identity(n);

  auto exact_off2 = [&]() {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    }
    return s;
  };

  const double scale = std::max(1.0, a.Norm());
  // Convergence when sqrt(2 * off2) <= tol * scale.
  const double off2_limit = 0.5 * (tol * scale) * (tol * scale);
  // Each Jacobi rotation zeroes a(p, q) and preserves the off-diagonal
  // Frobenius mass of every other entry, so the upper-triangle sum of
  // squares drops by exactly apq^2 per rotation. Maintaining it
  // incrementally replaces the O(n^2) per-sweep recomputation; an exact
  // refresh every few sweeps plus a verify-before-break bound FP drift in
  // both directions (premature and missed convergence).
  double off2 = exact_off2();
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (sweep > 0 && sweep % 4 == 0) off2 = exact_off2();
    if (off2 <= off2_limit) {
      off2 = exact_off2();
      if (off2 <= off2_limit) break;
    }
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        off2 = std::max(0.0, off2 - apq * apq);
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Smaller-magnitude root for numerical stability.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t i, size_t j) { return a(i, i) > a(j, j); });

  EigenDecomposition out;
  out.values.resize(n);
  for (size_t i = 0; i < n; ++i) out.values[i] = a(order[i], order[i]);
  // Release the rotated working copy before the sorted eigenvectors are
  // allocated, so at most three n x n matrices (input, a or output, v) are
  // ever live: an SSA fit's peak heap stays far below its Hankel matrix.
  a = Matrix();
  out.vectors = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < n; ++r) out.vectors(r, i) = v(r, order[i]);
  }
  return out;
}

}  // namespace ipool
