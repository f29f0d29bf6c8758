#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/blas1.h"

namespace dqmc::linalg {

namespace {

/// Applies the row interchanges piv[k0..k1) (in that order, or reversed) to
/// columns [c0, c1) of a, one column at a time so every swap is within one
/// unit-stride column (LAPACK's dlaswp). Pure data movement.
void swap_rows(MatrixView a, const std::vector<idx>& piv, idx k0, idx k1,
               idx c0, idx c1, bool reverse = false) {
  for (idx c = c0; c < c1; ++c) {
    double* col = a.col(c);
    for (idx s = k0; s < k1; ++s) {
      const idx k = reverse ? k0 + k1 - 1 - s : s;
      const idx p = piv[static_cast<std::size_t>(k)];
      if (p != k) std::swap(col[k], col[p]);
    }
  }
}

/// Unblocked right-looking panel factorization on the m x nb panel starting
/// at global step k0. Pivot rows are searched over the whole panel height;
/// the interchanges touch only the panel's columns.
void lu_panel(MatrixView a, idx k0, idx nb, std::vector<idx>& piv, int& sign) {
  const idx m = a.rows();
  for (idx k = k0; k < k0 + nb; ++k) {
    // Partial pivot within column k, rows k..m.
    idx p = k + iamax(m - k, &a(k, k), 1);
    piv[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      swap(nb, &a(k, k0), a.ld(), &a(p, k0), a.ld());
      sign = -sign;
    }
    const double pivot = a(k, k);
    if (pivot == 0.0) {
      throw NumericalError("lu_factor: exact zero pivot at step " +
                           std::to_string(k));
    }
    if (k + 1 < m) {
      scal(m - k - 1, 1.0 / pivot, &a(k + 1, k));
      // Rank-1 update restricted to the panel columns.
      for (idx j = k + 1; j < k0 + nb; ++j) {
        axpy(m - k - 1, -a(k, j), &a(k + 1, k), &a(k + 1, j));
      }
    }
  }
}

}  // namespace

LUFactorization lu_factor(Matrix a, idx block) {
  DQMC_CHECK_MSG(a.square(), "lu_factor requires a square matrix");
  const idx n = a.rows();
  LUFactorization f{std::move(a), std::vector<idx>(static_cast<std::size_t>(n)), 1};
  Matrix& A = f.factors;

  for (idx k0 = 0; k0 < n; k0 += block) {
    const idx nb = std::min(block, n - k0);
    // Factor panel (columns k0..k0+nb) over rows k0..n, then apply its row
    // swaps to the columns on either side.
    lu_panel(A, k0, nb, f.piv, f.pivot_sign);
    swap_rows(A, f.piv, k0, k0 + nb, 0, k0);
    swap_rows(A, f.piv, k0, k0 + nb, k0 + nb, n);

    if (k0 + nb < n) {
      // U12 = L11^{-1} A12 (unit lower triangular solve), then trailing
      // Schur complement A22 -= L21 U12 via GEMM — the level-3 bulk.
      ConstMatrixView l11 = A.block(k0, k0, nb, nb);
      MatrixView a12 = A.block(k0, k0 + nb, nb, n - k0 - nb);
      trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, l11, a12);
      if (k0 + nb < n) {
        ConstMatrixView l21 = A.block(k0 + nb, k0, n - k0 - nb, nb);
        MatrixView a22 = A.block(k0 + nb, k0 + nb, n - k0 - nb, n - k0 - nb);
        gemm(Trans::No, Trans::No, -1.0, l21, a12, 1.0, a22);
      }
    }
  }
  return f;
}

void lu_solve(const LUFactorization& f, Trans trans, MatrixView b) {
  const idx n = f.n();
  DQMC_CHECK(b.rows() == n);
  if (trans == Trans::No) {
    // P A = L U  =>  A X = B  <=>  L U X = P B.
    swap_rows(b, f.piv, 0, n, 0, b.cols());
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, f.factors, b);
    trsm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, f.factors, b);
  } else {
    // A^T X = B  <=>  U^T L^T P X = B: solve then un-permute.
    trsm(Side::Left, UpLo::Upper, Trans::Yes, Diag::NonUnit, 1.0, f.factors, b);
    trsm(Side::Left, UpLo::Lower, Trans::Yes, Diag::Unit, 1.0, f.factors, b);
    swap_rows(b, f.piv, 0, n, 0, b.cols(), /*reverse=*/true);
  }
}

Matrix lu_inverse(const LUFactorization& f) {
  Matrix inv = Matrix::identity(f.n());
  lu_solve(f, Trans::No, inv);
  return inv;
}

Matrix inverse(Matrix a) { return lu_inverse(lu_factor(std::move(a))); }

LogDet lu_logdet(const LUFactorization& f) {
  double log_abs = 0.0;
  int sign = f.pivot_sign;
  for (idx i = 0; i < f.n(); ++i) {
    const double u = f.factors(i, i);
    log_abs += std::log(std::fabs(u));
    if (u < 0.0) sign = -sign;
  }
  return {log_abs, sign};
}

}  // namespace dqmc::linalg
