#include "linalg/blas3.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "linalg/blas1.h"
#include "linalg/util.h"
#include "testing/test_utils.h"

namespace dqmc::linalg {
namespace {

using testing::reference_gemm;

/// Parameter sweep: (m, n, k, transa, transb, alpha, beta). Shapes straddle
/// the micro-kernel tile (24x8) and cache-block boundaries on purpose.
class GemmSweep
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<idx, idx, idx>, bool, bool, double, double>> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [shape, ta, tb, alpha, beta] = GetParam();
  const auto [m, n, k] = shape;
  MatrixRng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k));

  Matrix a = ta ? rng.uniform_matrix(k, m) : rng.uniform_matrix(m, k);
  Matrix b = tb ? rng.uniform_matrix(n, k) : rng.uniform_matrix(k, n);
  Matrix c = rng.uniform_matrix(m, n);

  Matrix expected = reference_gemm(ta, tb, alpha, a, b, beta, c);
  gemm(ta ? Trans::Yes : Trans::No, tb ? Trans::Yes : Trans::No, alpha, a, b,
       beta, c);
  // Error bound ~ k * eps * |row||col|; generous fixed tolerance.
  EXPECT_MATRIX_NEAR(c, expected, 1e-11 * std::max<idx>(k, 1));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndFlags, GemmSweep,
    ::testing::Combine(
        ::testing::Values(std::tuple<idx, idx, idx>{1, 1, 1},
                          std::tuple<idx, idx, idx>{8, 6, 4},
                          std::tuple<idx, idx, idx>{9, 7, 5},
                          std::tuple<idx, idx, idx>{24, 8, 16},
                          std::tuple<idx, idx, idx>{41, 13, 33},
                          std::tuple<idx, idx, idx>{16, 12, 256},
                          std::tuple<idx, idx, idx>{64, 64, 64},
                          std::tuple<idx, idx, idx>{100, 50, 300},
                          std::tuple<idx, idx, idx>{200, 3, 200},
                          std::tuple<idx, idx, idx>{3, 200, 200},
                          std::tuple<idx, idx, idx>{193, 100, 257}),
        ::testing::Bool(), ::testing::Bool(), ::testing::Values(1.0, -0.5),
        ::testing::Values(0.0, 1.0, 2.0)));

TEST(Gemm, ZeroInnerDimensionScalesC) {
  Matrix a(3, 0);
  Matrix b(0, 2);
  Matrix c(3, 2, {1, 2, 3, 4, 5, 6});
  gemm(Trans::No, Trans::No, 1.0, a, b, 2.0, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(2, 1), 12.0);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a = Matrix::zero(3, 4);
  Matrix b = Matrix::zero(5, 2);
  Matrix c = Matrix::zero(3, 2);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c),
               InvalidArgument);
}

TEST(Gemm, WorksOnStridedViews) {
  MatrixRng rng(7);
  Matrix big = rng.uniform_matrix(20, 20);
  Matrix a = Matrix::copy_of(big.block(2, 3, 10, 6));
  Matrix b = Matrix::copy_of(big.block(0, 0, 6, 8));
  Matrix c1 = Matrix::zero(10, 8);
  gemm(Trans::No, Trans::No, 1.0, big.block(2, 3, 10, 6),
       big.block(0, 0, 6, 8), 0.0, c1);
  Matrix c2 = testing::reference_matmul(a, b);
  EXPECT_MATRIX_NEAR(c1, c2, 1e-12);
}

TEST(Matmul, ConvenienceWrapper) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  Matrix ct = matmul(a, b, Trans::Yes, Trans::No);
  EXPECT_DOUBLE_EQ(ct(0, 0), 26.0);
}

/// Triangular-kernel sweeps: (order of T, side, uplo, trans, diag). The
/// orders sit below, on and across the kTriBlock = 64 diagonal-block size,
/// so both the unblocked diagonal-block kernels and the blocked GEMM
/// updates are checked against the dense reference.
using TriParam = std::tuple<idx, Side, UpLo, Trans, Diag>;

constexpr idx kTriOther = 11;  ///< the non-triangular dimension of B

auto all_tri_variants() {
  return ::testing::Combine(::testing::Values(idx{13}, idx{64}, idx{150}),
                            ::testing::Values(Side::Left, Side::Right),
                            ::testing::Values(UpLo::Upper, UpLo::Lower),
                            ::testing::Values(Trans::No, Trans::Yes),
                            ::testing::Values(Diag::NonUnit, Diag::Unit));
}

class TrsmSweep : public ::testing::TestWithParam<TriParam> {};

TEST_P(TrsmSweep, SolutionSatisfiesEquation) {
  const auto [tn, side, uplo, trans, diag] = GetParam();
  MatrixRng rng(99);
  const idx m = side == Side::Left ? tn : kTriOther;
  const idx n = side == Side::Left ? kTriOther : tn;

  // Off-diagonal entries scaled by 1/tn: a random triangular matrix with O(1)
  // entries has a condition number exponential in its order.
  Matrix t = rng.uniform_matrix(tn, tn);
  for (idx j = 0; j < tn; ++j)
    for (idx i = 0; i < tn; ++i) {
      const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
      t(i, j) = keep ? t(i, j) / static_cast<double>(tn) : 0.0;
    }
  for (idx i = 0; i < tn; ++i)
    t(i, i) = (diag == Diag::Unit) ? 1.0 : 3.0 + 0.1 * i;

  Matrix b0 = rng.uniform_matrix(m, n);
  Matrix x = b0;
  const double alpha = 2.0;
  trsm(side, uplo, trans, diag, alpha, t, x);

  Matrix opt = (trans == Trans::Yes) ? transpose(t) : Matrix(t);
  Matrix lhs = (side == Side::Left) ? testing::reference_matmul(opt, x)
                                    : testing::reference_matmul(x, opt);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < m; ++i)
      EXPECT_NEAR(lhs(i, j), alpha * b0(i, j), 1e-10) << i << "," << j;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TrsmSweep, all_tri_variants());

class TrmmSweep : public ::testing::TestWithParam<TriParam> {};

TEST_P(TrmmSweep, MatchesDenseMultiply) {
  const auto [tn, side, uplo, trans, diag] = GetParam();
  MatrixRng rng(5);
  const idx m = side == Side::Left ? tn : kTriOther;
  const idx n = side == Side::Left ? kTriOther : tn;

  Matrix t = rng.uniform_matrix(tn, tn);
  for (idx j = 0; j < tn; ++j)
    for (idx i = 0; i < tn; ++i) {
      const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
      if (!keep) t(i, j) = 0.0;
    }
  if (diag == Diag::Unit)
    for (idx i = 0; i < tn; ++i) t(i, i) = 1.0;

  Matrix b = rng.uniform_matrix(m, n);
  Matrix expected;
  {
    Matrix opt = (trans == Trans::Yes) ? transpose(t) : Matrix(t);
    expected = (side == Side::Left) ? testing::reference_matmul(opt, b)
                                    : testing::reference_matmul(b, opt);
    const double alpha = -1.5;
    for (idx j = 0; j < n; ++j)
      for (idx i = 0; i < m; ++i) expected(i, j) *= alpha;
  }
  trmm(side, uplo, trans, diag, -1.5, t, b);
  EXPECT_MATRIX_NEAR(b, expected, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TrmmSweep, all_tri_variants());

/// x * y + z with one rounding where the target fuses multiply-adds (as the
/// kernels' contracted `a + x * c` does), two where it cannot.
double madd(double x, double y, double z) {
#ifdef __FP_FAST_FMA
  return std::fma(x, y, z);
#else
  return x * y + z;
#endif
}

/// op(T) X = B by columns, the oracle of the diagonal-block solve. The axpy
/// form (Trans::No) is trsv's; the dot form sums each dot product in order
/// with one multiply-add per step. (trsv's own dot product is blas1 dot,
/// which the compiler may vectorize as an in-order reduction that rounds the
/// products apart from the sum.)
void per_column_trsm(UpLo uplo, Trans trans, Diag diag, const Matrix& t,
                     Matrix& b) {
  const idx m = b.rows();
  const bool unit = diag == Diag::Unit;
  for (idx c = 0; c < b.cols(); ++c) {
    double* x = b.col(c);
    if (trans == Trans::No) {
      trsv(uplo, trans, diag, t, x);
      continue;
    }
    const bool forward = uplo == UpLo::Upper;
    for (idx s = 0; s < m; ++s) {
      const idx i = forward ? s : m - 1 - s;
      double d = 0.0;
      const idx j0 = forward ? 0 : i + 1, j1 = forward ? i : m;
      for (idx j = j0; j < j1; ++j) d = madd(t(j, i), x[j], d);
      const double r = x[i] - d;
      x[i] = unit ? r : r / t(i, i);
    }
  }
}

/// B <- op(T) B by columns, the oracle of the diagonal-block multiply: the
/// axpy form is the per-column loop trmm ran before its column groups (the
/// diagonal product rounded, then axpy updates), the dot form the diagonal
/// product plus an in-order multiply-add dot product in one multiply-add.
void per_column_trmm(UpLo uplo, Trans trans, Diag diag, const Matrix& t,
                     Matrix& b) {
  const idx m = b.rows();
  const bool unit = diag == Diag::Unit;
  const bool upper = uplo == UpLo::Upper;
  for (idx c = 0; c < b.cols(); ++c) {
    double* x = b.col(c);
    if (trans == Trans::No) {
      if (upper) {
        for (idx p = 0; p < m; ++p) {
          const double xp = x[p];
          axpy(p, xp, t.col(p), x);
          if (!unit) x[p] = t(p, p) * xp;
        }
      } else {
        for (idx p = m - 1; p >= 0; --p) {
          const double xp = x[p];
          axpy(m - p - 1, xp, t.col(p) + p + 1, x + p + 1);
          if (!unit) x[p] = t(p, p) * xp;
        }
      }
      continue;
    }
    // op(T) = T^T: row i reads inputs below it (upper T) or above it
    // (lower T), so go bottom-up or top-down.
    for (idx s = 0; s < m; ++s) {
      const idx i = upper ? m - 1 - s : s;
      double d = 0.0;
      const idx j0 = upper ? 0 : i + 1, j1 = upper ? i : m;
      for (idx j = j0; j < j1; ++j) d = madd(t(j, i), x[j], d);
      x[i] = unit ? x[i] + d : madd(t(i, i), x[i], d);
    }
  }
}

/// (order of T, right-hand sides, uplo, trans, diag): orders up to one
/// diagonal block, so trsm and trmm are their diagonal-block kernels alone.
using GroupParam = std::tuple<idx, idx, UpLo, Trans, Diag>;

class TriGroupBitwise : public ::testing::TestWithParam<GroupParam> {
 protected:
  /// A triangle and right-hand sides with exact zeros of both signs, so the
  /// axpy form's alpha == 0 skip shows in the sign of zero results.
  void SetUp() override {
    const auto [tn, nrhs, uplo, trans, diag] = GetParam();
    MatrixRng rng(static_cast<std::uint64_t>(tn * 37 + nrhs));
    t_ = rng.uniform_matrix(tn, tn);
    for (idx j = 0; j < tn; ++j) {
      for (idx i = 0; i < tn; ++i) {
        const bool keep = uplo == UpLo::Upper ? i <= j : i >= j;
        if (!keep || (i + 2 * j) % 7 == 3) t_(i, j) = 0.0;
        else if (i != j) t_(i, j) /= static_cast<double>(tn);
      }
      t_(j, j) = 2.0 + 0.01 * static_cast<double>(j);
    }
    b_ = rng.uniform_matrix(tn, nrhs);
    for (idx j = 0; j < nrhs; ++j) {
      for (idx i = 0; i < tn; ++i) {
        if ((3 * i + j) % 5 == 0) b_(i, j) = 0.0;
        if ((i + 5 * j) % 11 == 4) b_(i, j) = -0.0;
      }
    }
  }

  Matrix t_, b_;
};

void expect_bitwise_equal(const Matrix& got, const Matrix& want) {
  for (idx j = 0; j < got.cols(); ++j) {
    for (idx i = 0; i < got.rows(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                std::bit_cast<std::uint64_t>(want(i, j)))
          << "(" << i << ", " << j << "): " << got(i, j) << " vs "
          << want(i, j);
    }
  }
}

TEST_P(TriGroupBitwise, TrsmMatchesPerColumnSolve) {
  const auto [tn, nrhs, uplo, trans, diag] = GetParam();
  Matrix x = b_;
  trsm(Side::Left, uplo, trans, diag, 1.0, t_, x);
  Matrix want = b_;
  per_column_trsm(uplo, trans, diag, t_, want);
  expect_bitwise_equal(x, want);
}

TEST_P(TriGroupBitwise, TrmmMatchesPerColumnLoop) {
  const auto [tn, nrhs, uplo, trans, diag] = GetParam();
  Matrix x = b_;
  trmm(Side::Left, uplo, trans, diag, 1.0, t_, x);
  Matrix want = b_;
  per_column_trmm(uplo, trans, diag, t_, want);
  expect_bitwise_equal(x, want);
}

INSTANTIATE_TEST_SUITE_P(
    RhsCounts, TriGroupBitwise,
    ::testing::Combine(::testing::Values(idx{1}, idx{6}, idx{37}, idx{64}),
                       ::testing::Values(idx{1}, idx{2}, idx{3}, idx{4},
                                         idx{5}, idx{6}, idx{7}, idx{8},
                                         idx{9}, idx{33}),
                       ::testing::Values(UpLo::Upper, UpLo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

}  // namespace
}  // namespace dqmc::linalg
