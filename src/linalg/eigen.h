// Symmetric eigendecomposition by the cyclic Jacobi method: SSA training's
// eigensolve (forecast/ssa.cc) on the L x L Hankel Gram.
#ifndef IPOOL_LINALG_EIGEN_H_
#define IPOOL_LINALG_EIGEN_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace ipool {

struct EigenDecomposition {
  /// Descending eigenvalues.
  std::vector<double> values;
  /// Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
/// Returns InvalidArgument for non-square input; symmetry is assumed (only
/// the upper triangle is read in the rotations' bookkeeping sense).
Result<EigenDecomposition> SymmetricEigen(const Matrix& a,
                                          size_t max_sweeps = 64,
                                          double tol = 1e-12);

}  // namespace ipool

#endif  // IPOOL_LINALG_EIGEN_H_
