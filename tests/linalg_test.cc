#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simd_kernels.h"

namespace ipool {
namespace {

TEST(MatrixTest, FromRowMajorValidatesSize) {
  EXPECT_FALSE(Matrix::FromRowMajor(2, 2, {1, 2, 3}).ok());
  auto m = Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 1), 2.0);
  EXPECT_DOUBLE_EQ((*m)(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);

  auto m = *Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  auto a = *Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  auto b = *Matrix::FromRowMajor(3, 2, {7, 8, 9, 10, 11, 12});
  auto c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 58.0);
  EXPECT_DOUBLE_EQ((*c)(0, 1), 64.0);
  EXPECT_DOUBLE_EQ((*c)(1, 0), 139.0);
  EXPECT_DOUBLE_EQ((*c)(1, 1), 154.0);
}

TEST(MatrixTest, MatMulRejectsMismatch) {
  EXPECT_FALSE(MatMul(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(MatrixTest, MatVec) {
  auto a = *Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  auto y = MatVec(a, {5, 6});
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)[0], 17.0);
  EXPECT_DOUBLE_EQ((*y)[1], 39.0);
  EXPECT_FALSE(MatVec(a, {1, 2, 3}).ok());
}

TEST(MatrixTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
}

TEST(HankelTest, Layout) {
  auto h = HankelMatrix({1, 2, 3, 4, 5}, 3);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->rows(), 3u);
  EXPECT_EQ(h->cols(), 3u);
  EXPECT_DOUBLE_EQ((*h)(0, 0), 1.0);
  EXPECT_DOUBLE_EQ((*h)(2, 2), 5.0);
  EXPECT_DOUBLE_EQ((*h)(1, 1), 3.0);
}

TEST(HankelTest, RejectsBadWindow) {
  EXPECT_FALSE(HankelMatrix({1, 2}, 0).ok());
  EXPECT_FALSE(HankelMatrix({1, 2}, 3).ok());
}

TEST(HankelGramTest, MatchesExplicitProduct) {
  Rng rng(17);
  std::vector<double> series(23);
  for (double& v : series) v = rng.Uniform(-2, 2);
  const size_t window = 7;
  auto gram = HankelGram(series, window);
  ASSERT_TRUE(gram.ok());
  auto h = *HankelMatrix(series, window);
  auto reference = *MatMul(h, h.Transpose());
  for (size_t i = 0; i < window; ++i) {
    for (size_t j = 0; j < window; ++j) {
      EXPECT_NEAR((*gram)(i, j), reference(i, j), 1e-10) << i << "," << j;
      EXPECT_DOUBLE_EQ((*gram)(i, j), (*gram)(j, i));
    }
  }
}

TEST(HankelGramTest, RejectsBadWindow) {
  EXPECT_FALSE(HankelGram({1, 2}, 0).ok());
  EXPECT_FALSE(HankelGram({1, 2}, 3).ok());
}

TEST(EigenTest, DiagonalMatrix) {
  auto m = *Matrix::FromRowMajor(3, 3, {3, 0, 0, 0, 1, 0, 0, 0, 2});
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig->values[2], 1.0, 1e-10);
}

TEST(EigenTest, KnownSymmetric) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  auto m = *Matrix::FromRowMajor(2, 2, {2, 1, 1, 2});
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  const double v0 = eig->vectors(0, 0);
  const double v1 = eig->vectors(1, 0);
  EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, ReconstructsRandomSymmetric) {
  Rng rng(21);
  const size_t n = 12;
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Uniform(-2, 2);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  auto eig = SymmetricEigen(m);
  ASSERT_TRUE(eig.ok());
  // Check A v_i = lambda_i v_i for each pair.
  for (size_t i = 0; i < n; ++i) {
    auto vi = eig->vectors.Col(i);
    auto av = *MatVec(m, vi);
    for (size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(av[r], eig->values[i] * vi[r], 1e-8);
    }
  }
}

// ---- SIMD microkernels: the dispatch contract of simd_kernels.h ----------
// Every kernel must produce BIT-IDENTICAL results on every IsaLevel, across
// odd lengths that exercise the 8-wide main loop, the 4-wide loop and the
// scalar tail in every combination. On hosts without AVX2+FMA forcing kAvx2
// degrades to scalar and the comparisons hold trivially.

std::vector<double> RandomKernelVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-3.0, 3.0);
  return v;
}

// The odd sizes: empty, pure tail, one full vector, vector+tail, etc.
const size_t kKernelSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                               12, 15, 16, 17, 31, 32, 33, 100};

TEST(SimdKernelTest, ScopedForceIsaPinsAndRestoresDispatch) {
  const simd::IsaLevel ambient = simd::ActiveIsa();
  if (!simd::Avx2Available()) {
    EXPECT_EQ(ambient, simd::IsaLevel::kScalar);
  }
  {
    simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveIsa(), simd::IsaLevel::kScalar);
    {
      // Nested force restores the outer pin, not the ambient default.
      simd::ScopedForceIsa inner(simd::IsaLevel::kAvx2);
      EXPECT_EQ(simd::ActiveIsa(), simd::Avx2Available()
                                       ? simd::IsaLevel::kAvx2
                                       : simd::IsaLevel::kScalar);
    }
    EXPECT_EQ(simd::ActiveIsa(), simd::IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveIsa(), ambient);
  EXPECT_STREQ(simd::IsaName(simd::IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::IsaName(simd::IsaLevel::kAvx2), "avx2");
}

TEST(SimdKernelTest, DotBitIdenticalAcrossIsaLevels) {
  for (size_t n : kKernelSizes) {
    const auto a = RandomKernelVec(n, 900 + n);
    const auto b = RandomKernelVec(n, 1900 + n);
    double scalar = 0.0;
    double dispatched = 0.0;
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
      scalar = simd::Dot(a.data(), b.data(), n);
    }
    {
      simd::ScopedForceIsa force(simd::IsaLevel::kAvx2);
      dispatched = simd::Dot(a.data(), b.data(), n);
    }
    EXPECT_EQ(scalar, dispatched) << "n=" << n;
    // And against the definition itself: eight strided fma lanes, the fixed
    // pairwise reduction, then a sequential fused tail.
    double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      for (size_t l = 0; l < 8; ++l) {
        lane[l] = std::fma(a[k + l], b[k + l], lane[l]);
      }
    }
    double want = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                  ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (; k < n; ++k) want = std::fma(a[k], b[k], want);
    EXPECT_EQ(scalar, want) << "n=" << n;
  }
}

TEST(SimdKernelTest, MulAddBitIdenticalToPlainLoopOnEveryIsa) {
  for (size_t n : kKernelSizes) {
    const auto src = RandomKernelVec(n, 300 + n);
    const auto init = RandomKernelVec(n, 1300 + n);
    const double scale = 1.0 / 3.0;  // not exactly representable: real
                                     // rounding on every element
    std::vector<double> want = init;
    for (size_t j = 0; j < n; ++j) want[j] += scale * src[j];
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2}) {
      simd::ScopedForceIsa force(level);
      std::vector<double> dst = init;
      simd::MulAdd(dst.data(), src.data(), scale, n);
      EXPECT_EQ(dst, want) << "n=" << n << " isa "
                           << simd::IsaName(simd::ActiveIsa());
    }
  }
}

TEST(SimdKernelTest, StridedRevDotBitIdenticalAcrossIsaLevels) {
  // a is a strided column of a row-major matrix; b is walked backwards from
  // its anchor. Odd strides and the kKernelSizes lengths hit the gather
  // main loop and every tail shape.
  for (const size_t stride : {1u, 3u, 8u}) {
    for (size_t n : kKernelSizes) {
      const auto a = RandomKernelVec(n * stride + 1, 700 + n * stride);
      const auto rev = RandomKernelVec(n + 1, 1700 + n);
      // Anchor b at its last element so b[-t] stays in bounds for t < n.
      const double* b = rev.data() + (n == 0 ? 0 : n - 1);
      double scalar = 0.0;
      double dispatched = 0.0;
      {
        simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
        scalar = simd::StridedRevDot(a.data(), stride, b, n);
      }
      {
        simd::ScopedForceIsa force(simd::IsaLevel::kAvx2);
        dispatched = simd::StridedRevDot(a.data(), stride, b, n);
      }
      EXPECT_EQ(scalar, dispatched) << "n=" << n << " stride=" << stride;
      // And against the definition itself: four strided fma lanes, the
      // fixed (l0+l1)+(l2+l3) reduction, then a sequential fused tail.
      double lane[4] = {0, 0, 0, 0};
      size_t t = 0;
      for (; t + 4 <= n; t += 4) {
        for (size_t l = 0; l < 4; ++l) {
          lane[l] = std::fma(a[(t + l) * stride],
                             b[-static_cast<ptrdiff_t>(t + l)], lane[l]);
        }
      }
      double want = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      for (; t < n; ++t) {
        want = std::fma(a[t * stride], b[-static_cast<ptrdiff_t>(t)], want);
      }
      EXPECT_EQ(scalar, want) << "n=" << n << " stride=" << stride;
    }
  }
}

TEST(SimdKernelTest, MatMulMatVecDotBitIdenticalAcrossIsa) {
  // Odd shapes so row lengths hit main loop + tail; compare the full
  // public entry points under forced scalar vs dispatched.
  const std::vector<std::array<size_t, 3>> shapes = {
      {1, 1, 1}, {3, 7, 5}, {17, 9, 11}, {5, 33, 2}, {23, 16, 8}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = *Matrix::FromRowMajor(m, k, RandomKernelVec(m * k, m + k));
    const Matrix b = *Matrix::FromRowMajor(k, n, RandomKernelVec(k * n, k + n));
    const auto x = RandomKernelVec(k, 7 * k + 1);
    auto run = [&] {
      auto c = *MatMul(a, b);
      auto y = *MatVec(a, x);
      auto d = Dot(x, x);
      return std::tuple<std::vector<double>, std::vector<double>, double>(
          c.data(), std::move(y), d);
    };
    simd::ScopedForceIsa scalar(simd::IsaLevel::kScalar);
    const auto want = run();
    {
      simd::ScopedForceIsa dispatched(simd::IsaLevel::kAvx2);
      EXPECT_EQ(run(), want) << m << "x" << k << "x" << n;
    }
  }
}

TEST(SimdKernelTest, HankelGramBitIdenticalAcrossIsaAndSlideConsistent) {
  const auto series = RandomKernelVec(97, 4242);
  const size_t window = 31;
  auto run = [&] { return (*HankelGram(series, window)).data(); };
  simd::ScopedForceIsa scalar(simd::IsaLevel::kScalar);
  const auto want = run();
  {
    simd::ScopedForceIsa dispatched(simd::IsaLevel::kAvx2);
    EXPECT_EQ(run(), want);
  }
}

}  // namespace
}  // namespace ipool
