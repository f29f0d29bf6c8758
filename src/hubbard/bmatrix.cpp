#include "hubbard/bmatrix.h"

#include <cmath>

#include "linalg/diag.h"

namespace dqmc::hubbard {

BMatrixFactory::BMatrixFactory(const Lattice& lattice,
                               const ModelParams& params, KineticKind kinetic)
    : params_(params), nu_(params.hs_nu()), kinetic_(lattice, params, kinetic) {}

Vector BMatrixFactory::v_diagonal(const hs_t* h, Spin sigma) const {
  const idx nn = n();
  Vector v(nn);
  const double s = spin_sign(sigma) * nu_;
  for (idx i = 0; i < nn; ++i) v[i] = std::exp(s * static_cast<double>(h[i]));
  return v;
}

Vector BMatrixFactory::v_diagonal_inv(const hs_t* h, Spin sigma) const {
  const idx nn = n();
  Vector v(nn);
  const double s = -spin_sign(sigma) * nu_;
  for (idx i = 0; i < nn; ++i) v[i] = std::exp(s * static_cast<double>(h[i]));
  return v;
}

Matrix BMatrixFactory::make_b(const hs_t* h, Spin sigma) const {
  // The apply to the identity is bitwise b(), without rendering it.
  Matrix out = Matrix::identity(n());
  kinetic_.apply_left(out);
  const Vector v = v_diagonal(h, sigma);
  linalg::scale_rows(v.data(), out);
  return out;
}

void BMatrixFactory::apply_b_left(const hs_t* h, Spin sigma,
                                  ConstMatrixView in, MatrixView out) const {
  DQMC_CHECK(in.rows() == n() && out.rows() == n() && in.cols() == out.cols());
  // copy + in-place structured apply; linalg::copy preserves bits, so this
  // matches the backend chain's kinetic_apply path exactly.
  linalg::copy(in, out);
  kinetic_.apply_left(out);
  const Vector v = v_diagonal(h, sigma);
  linalg::scale_rows(v.data(), out);
}

void BMatrixFactory::apply_b_inv_right(const hs_t* h, Spin sigma,
                                       ConstMatrixView in,
                                       MatrixView out) const {
  DQMC_CHECK(in.cols() == n() && out.cols() == n() && in.rows() == out.rows());
  linalg::copy(in, out);
  kinetic_.apply_inverse_right(out);
  const Vector vinv = v_diagonal_inv(h, sigma);
  linalg::scale_cols(vinv.data(), out);
}

void BMatrixFactory::wrap(const hs_t* h, Spin sigma, MatrixView g,
                          MatrixView /*work*/) const {
  DQMC_CHECK(g.rows() == n() && g.cols() == n());
  kinetic_.apply_left(g);
  kinetic_.apply_inverse_right(g);
  const Vector v = v_diagonal(h, sigma);
  linalg::scale_rows_cols_inv(v.data(), v.data(), g);
}

}  // namespace dqmc::hubbard
