#include "hubbard/kinetic_operator.h"

#include "common/error.h"

namespace dqmc::hubbard {

const char* kinetic_kind_name(KineticKind kind) {
  switch (kind) {
    case KineticKind::kDense:
      return "dense";
    case KineticKind::kCheckerboard:
      return "checkerboard";
  }
  return "unknown";
}

KineticKind kinetic_kind_from_string(const std::string& name) {
  if (name == "dense") return KineticKind::kDense;
  if (name == "checkerboard") return KineticKind::kCheckerboard;
  throw InvalidArgument("unknown kinetic kind '" + name +
                        "' (expected dense or checkerboard)");
}

KineticOperator::KineticOperator(const Lattice& lattice,
                                 const ModelParams& params, KineticKind kind)
    : lattice_(lattice),
      params_(params),
      kind_(kind),
      dense_(std::make_unique<Dense>()) {
  if (kind_ == KineticKind::kCheckerboard) {
    cb_ = std::make_unique<CheckerboardB>(lattice, params);
    factor_ = cb_->op();
  } else {
    factor_ = kinetic_kron(lattice, params);
  }
}

const Matrix& KineticOperator::b() const {
  std::call_once(dense_->b_once, [this] {
    dense_->b = Matrix::identity(n());
    dense_->b_inv = Matrix::identity(n());
    apply_left(dense_->b);
    apply_inverse_left(dense_->b_inv);
  });
  return dense_->b;
}

const Matrix& KineticOperator::b_inv() const {
  b();
  return dense_->b_inv;
}

const linalg::SymmetricEigen& KineticOperator::eig() const {
  std::call_once(dense_->eig_once, [this] {
    dense_->eig = linalg::eig_sym(kinetic_matrix(lattice_, params_));
  });
  return dense_->eig;
}

const CheckerboardB& KineticOperator::checkerboard() const {
  DQMC_CHECK_MSG(cb_ != nullptr,
                 "KineticOperator: structured form requested in dense mode");
  return *cb_;
}

void KineticOperator::apply_left(MatrixView x) const {
  linalg::kinetic_apply(factor_, linalg::CbSide::kLeft, false, x);
}

void KineticOperator::apply_inverse_left(MatrixView x) const {
  linalg::kinetic_apply(factor_, linalg::CbSide::kLeft, true, x);
}

void KineticOperator::apply_right(MatrixView x) const {
  linalg::kinetic_apply(factor_, linalg::CbSide::kRight, false, x);
}

void KineticOperator::apply_inverse_right(MatrixView x) const {
  linalg::kinetic_apply(factor_, linalg::CbSide::kRight, true, x);
}

}  // namespace dqmc::hubbard
