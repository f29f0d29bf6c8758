#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/blas1.h"
#include "linalg/blas3.h"
#include "linalg/norms.h"
#include "linalg/util.h"
#include "testing/test_utils.h"

namespace dqmc::linalg {
namespace {

using testing::reference_inverse;
using testing::reference_matmul;

class LuSizes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(LuSizes, SolveReturnsTrueSolution) {
  const auto [n, block] = GetParam();
  MatrixRng rng(static_cast<std::uint64_t>(n * 100 + block));
  Matrix a = rng.uniform_matrix(n, n);
  add_identity(a, static_cast<double>(n));  // diagonally dominant => well conditioned

  Matrix x_true = rng.uniform_matrix(n, 3);
  Matrix b = reference_matmul(a, x_true);

  LUFactorization f = lu_factor(a, block);
  lu_solve(f, Trans::No, b);
  EXPECT_MATRIX_NEAR(b, x_true, 1e-10);
}

TEST_P(LuSizes, TransposeSolve) {
  const auto [n, block] = GetParam();
  MatrixRng rng(static_cast<std::uint64_t>(n * 100 + block + 1));
  Matrix a = rng.uniform_matrix(n, n);
  add_identity(a, static_cast<double>(n));

  Matrix x_true = rng.uniform_matrix(n, 2);
  Matrix at = transpose(a);
  Matrix b = reference_matmul(at, x_true);

  LUFactorization f = lu_factor(a, block);
  lu_solve(f, Trans::Yes, b);
  EXPECT_MATRIX_NEAR(b, x_true, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, LuSizes,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 33, 80),
                       ::testing::Values(1, 8, 32)));

TEST(Lu, InverseMatchesReference) {
  MatrixRng rng(61);
  Matrix a = rng.uniform_matrix(24, 24);
  add_identity(a, 8.0);
  Matrix inv = inverse(a);
  Matrix ref = reference_inverse(a);
  EXPECT_MATRIX_NEAR(inv, ref, 1e-11);
  // A * inv(A) == I.
  Matrix prod = reference_matmul(a, inv);
  EXPECT_MATRIX_NEAR(prod, Matrix::identity(24), 1e-11);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a = Matrix::zero(3, 3);
  a(0, 0) = 1.0;  // rank 1
  EXPECT_THROW(lu_factor(a), NumericalError);
}

TEST(Lu, NonSquareThrows) {
  Matrix a = Matrix::zero(3, 4);
  EXPECT_THROW(lu_factor(a), InvalidArgument);
}

TEST(Lu, LogDetMatchesKnownDeterminant) {
  // det of a 2x2: ad - bc.
  Matrix a(2, 2, {3, 1, 4, 2});  // det = 2
  LogDet d = lu_logdet(lu_factor(a));
  EXPECT_EQ(d.sign, 1);
  EXPECT_NEAR(d.log_abs, std::log(2.0), 1e-13);

  Matrix b(2, 2, {1, 2, 3, 4});  // det = -2
  LogDet db = lu_logdet(lu_factor(b));
  EXPECT_EQ(db.sign, -1);
  EXPECT_NEAR(db.log_abs, std::log(2.0), 1e-13);
}

TEST(Lu, LogDetOfOrthogonalIsZero) {
  MatrixRng rng(67);
  Matrix q = rng.orthogonal_matrix(20);
  LogDet d = lu_logdet(lu_factor(q));
  EXPECT_NEAR(d.log_abs, 0.0, 1e-11);
  EXPECT_TRUE(d.sign == 1 || d.sign == -1);
}

TEST(Lu, PivotingHandlesZeroLeadingElement) {
  Matrix a(2, 2, {0, 1, 1, 0});  // needs a row swap
  LUFactorization f = lu_factor(a);
  Matrix inv = lu_inverse(f);
  EXPECT_MATRIX_NEAR(inv, a, 1e-14);  // this permutation is its own inverse
  EXPECT_EQ(f.pivot_sign, -1);
}

TEST(Lu, BlockedAndUnblockedAgree) {
  MatrixRng rng(71);
  Matrix a = rng.uniform_matrix(50, 50);
  add_identity(a, 10.0);
  Matrix i1 = lu_inverse(lu_factor(a, 1));
  Matrix i2 = lu_inverse(lu_factor(a, 32));
  EXPECT_MATRIX_NEAR(i1, i2, 1e-12);
}

/// The blocked LU as it was before its interchanges moved out of the panel:
/// every swap runs across the full width as one ld-strided row swap, inside
/// the panel loop. Kept as the oracle for the unit-stride column swaps.
LUFactorization strided_swap_lu(Matrix a, idx block) {
  const idx n = a.rows();
  LUFactorization f{std::move(a), std::vector<idx>(static_cast<std::size_t>(n)), 1};
  Matrix& A = f.factors;
  for (idx k0 = 0; k0 < n; k0 += block) {
    const idx nb = std::min(block, n - k0);
    for (idx k = k0; k < k0 + nb; ++k) {
      const idx p = k + iamax(n - k, &A(k, k), 1);
      f.piv[static_cast<std::size_t>(k)] = p;
      if (p != k) {
        swap(n, &A(k, 0), A.ld(), &A(p, 0), A.ld());
        f.pivot_sign = -f.pivot_sign;
      }
      if (k + 1 < n) {
        scal(n - k - 1, 1.0 / A(k, k), &A(k + 1, k));
        for (idx j = k + 1; j < k0 + nb; ++j) {
          axpy(n - k - 1, -A(k, j), &A(k + 1, k), &A(k + 1, j));
        }
      }
    }
    if (k0 + nb < n) {
      MatrixView a12 = A.block(k0, k0 + nb, nb, n - k0 - nb);
      trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0,
           A.block(k0, k0, nb, nb), a12);
      gemm(Trans::No, Trans::No, -1.0, A.block(k0 + nb, k0, n - k0 - nb, nb),
           a12, 1.0, A.block(k0 + nb, k0 + nb, n - k0 - nb, n - k0 - nb));
    }
  }
  return f;
}

/// lu_solve with the same strided full-width row swaps.
void strided_swap_solve(const LUFactorization& f, Trans trans, Matrix& b) {
  const idx n = f.n();
  const auto permute = [&](idx k) {
    const idx p = f.piv[static_cast<std::size_t>(k)];
    if (p != k) swap(b.cols(), &b(k, 0), b.ld(), &b(p, 0), b.ld());
  };
  if (trans == Trans::No) {
    for (idx k = 0; k < n; ++k) permute(k);
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, f.factors, b);
    trsm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, f.factors, b);
  } else {
    trsm(Side::Left, UpLo::Upper, Trans::Yes, Diag::NonUnit, 1.0, f.factors, b);
    trsm(Side::Left, UpLo::Lower, Trans::Yes, Diag::Unit, 1.0, f.factors, b);
    for (idx k = n - 1; k >= 0; --k) permute(k);
  }
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (idx j = 0; j < x.cols(); ++j) {
    for (idx i = 0; i < x.rows(); ++i) {
      if (std::bit_cast<std::uint64_t>(x(i, j)) !=
          std::bit_cast<std::uint64_t>(y(i, j))) {
        return false;
      }
    }
  }
  return true;
}

class LuSwapOracle : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(LuSwapOracle, FactorsAndSolvesMatchStridedSwapsBitwise) {
  const auto [n, block] = GetParam();
  MatrixRng rng(static_cast<std::uint64_t>(n * 7 + block));
  // No diagonal boost: the pivots wander, so most steps swap.
  const Matrix a = rng.uniform_matrix(n, n);
  const LUFactorization f = lu_factor(a, block);
  const LUFactorization want = strided_swap_lu(a, block);
  EXPECT_TRUE(bitwise_equal(f.factors, want.factors));
  EXPECT_EQ(f.piv, want.piv);
  EXPECT_EQ(f.pivot_sign, want.pivot_sign);

  for (const Trans trans : {Trans::No, Trans::Yes}) {
    const Matrix b = rng.uniform_matrix(n, 2 * n + 1);
    Matrix x = b, x_want = b;
    lu_solve(f, trans, x);
    strided_swap_solve(want, trans, x_want);
    EXPECT_TRUE(bitwise_equal(x, x_want))
        << (trans == Trans::No ? "Trans::No" : "Trans::Yes");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, LuSwapOracle,
    ::testing::Combine(::testing::Values(1, 5, 33, 100),
                       ::testing::Values(1, 8, 32)));

}  // namespace
}  // namespace dqmc::linalg
