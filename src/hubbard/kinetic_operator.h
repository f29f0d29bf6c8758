// The kinetic factor B = e^{-dtau K} as a structured operator.
//
// Two variants, selected per run (config key `kinetic`):
//   dense        — the exact exponential, applied as the Kronecker product
//                  E_z (x) E_y (x) E_x of its 1-D factors (kinetic_kron):
//                  2 n cols (lx + ly + layers) flops per apply instead of
//                  the 2 n^2 cols of a GEMM against the n x n matrix.
//   checkerboard — the split-bond factorization (checkerboard.h); applies
//                  cost O(bonds x columns) with the same O(dtau^2) error
//                  order as the Trotter splitting itself.
//
// Either way the dense accessors return the RENDERED structured operator
// (its apply to the identity), so every consumer of the dense matrix —
// graded stratification seeds, time-displaced chains, tests — represents
// exactly the operator the fast paths apply, and a chain seeded from the
// identity reproduces b() bitwise. In dense mode the rendering equals the
// eigendecomposition exponential of K to rounding; in checkerboard mode it
// differs from it by the one documented O(dtau^2) splitting error.
//
// No engine reads the dense forms: they are rendered on first use (b() and
// b_inv() together, eig() on its own), safely from any thread, so a run
// pays neither their 2 n^2 doubles nor the O(n^3) eigendecomposition.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "hubbard/checkerboard.h"
#include "hubbard/kinetic.h"
#include "linalg/kinetic_factor.h"

namespace dqmc::hubbard {

enum class KineticKind {
  kDense,
  kCheckerboard,
};

const char* kinetic_kind_name(KineticKind kind);
/// Parses "dense" / "checkerboard"; throws InvalidArgument otherwise.
KineticKind kinetic_kind_from_string(const std::string& name);

class KineticOperator {
 public:
  KineticOperator(const Lattice& lattice, const ModelParams& params,
                  KineticKind kind);

  KineticKind kind() const { return kind_; }
  /// True in checkerboard mode (the split-bond approximation).
  bool structured() const { return kind_ == KineticKind::kCheckerboard; }
  idx n() const { return lattice_.num_sites(); }

  /// Dense rendering of B and B^{-1}: the structured factor applied to the
  /// identity (rendered on first use).
  const Matrix& b() const;
  const Matrix& b_inv() const;
  /// Eigendecomposition of K — always the exact one, both modes (free
  /// fermion references and spectral diagnostics need it regardless).
  /// Computed on first use.
  const linalg::SymmetricEigen& eig() const;

  /// The structured form every apply runs and the compute backends upload:
  /// the Kronecker product in dense mode, the bond table in checkerboard
  /// mode.
  const linalg::KineticFactor& factor() const { return factor_; }
  /// Structured checkerboard form; only valid in checkerboard mode.
  const CheckerboardB& checkerboard() const;
  const linalg::CbOperator& cb() const { return checkerboard().op(); }

  /// Nominal flops of one apply to `cols` operand columns.
  double apply_flops(idx cols) const {
    return linalg::kinetic_apply_flops(factor_, cols);
  }

  /// In-place applies (no scratch, no GEMM):
  ///   apply_left:          x <- B x
  ///   apply_inverse_left:  x <- B^{-1} x
  ///   apply_right:         x <- x B
  ///   apply_inverse_right: x <- x B^{-1}   (the wrap's right factor)
  void apply_left(MatrixView x) const;
  void apply_inverse_left(MatrixView x) const;
  void apply_right(MatrixView x) const;
  void apply_inverse_right(MatrixView x) const;

 private:
  /// The forms rendered on first use, each behind its own once flag.
  struct Dense {
    std::once_flag b_once, eig_once;
    Matrix b, b_inv;
    linalg::SymmetricEigen eig;
  };

  Lattice lattice_;
  ModelParams params_;
  KineticKind kind_;
  linalg::KineticFactor factor_;
  std::unique_ptr<CheckerboardB> cb_;
  std::unique_ptr<Dense> dense_;
};

}  // namespace dqmc::hubbard
