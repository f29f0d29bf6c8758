#include "dqmc/boundary_stack.h"

#include <utility>

#include "dqmc/stratification.h"
#include "linalg/blas3.h"
#include "linalg/diag.h"
#include "linalg/lu.h"

namespace dqmc::core {

using linalg::Trans;

namespace {

void set_identity(MatrixView a) {
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) a(i, j) = i == j ? 1.0 : 0.0;
  }
}

}  // namespace

const char* sweep_direction_name(SweepDirection d) {
  return d == SweepDirection::kUp ? "up" : "down";
}

void close_boundary(const ChainFactors& prefix, const ChainFactors& suffix,
                    MatrixView g_tautau, MatrixView g_tau0, MatrixView g_0tau,
                    Matrix& h, Matrix& x, Matrix& y) {
  DQMC_CHECK_MSG(!prefix.identity() || !suffix.identity(),
                 "both chain parts empty");
  const idx n = g_tautau.rows();
  const bool want_tau0 = !g_tau0.empty();
  const bool want_0tau = !g_0tau.empty();
  const Vector ones = Vector::constant(n, 1.0);
  const ScaleSplit s1 = split_scales(prefix.identity() ? ones : *prefix.d);
  const ScaleSplit s2 = split_scales(suffix.identity() ? ones : *suffix.d);
  h.resize(n, n);
  x.resize(n, want_tau0 ? 2 * n : n);
  MatrixView x_u = x.block(0, want_tau0 ? n : 0, n, n);

  // H = db1 . (U1^T U2) . db2 + ds1 . (T1 T2^T) . ds2 (rows . cols scaling).
  // An identity side drops its GEMM: its factors are exactly I and 1.
  if (prefix.identity()) {
    const Matrix& u2 = *suffix.u;
    const Matrix& t2 = *suffix.t;
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) {
        h(i, j) = u2(i, j) * s2.db[j] + t2(j, i) * s2.ds[j];
      }
    }
  } else if (suffix.identity()) {
    const Matrix& u1 = *prefix.u;
    const Matrix& t1 = *prefix.t;
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) {
        h(i, j) = s1.db[i] * u1(j, i) + s1.ds[i] * t1(i, j);
      }
    }
  } else {
    // T1 T2^T lands in x_u, which is free until the right-hand side below.
    linalg::gemm(Trans::Yes, Trans::No, 1.0, *prefix.u, *suffix.u, 0.0, h);
    linalg::gemm(Trans::No, Trans::Yes, 1.0, *prefix.t, *suffix.t, 0.0, x_u);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) {
        h(i, j) =
            s1.db[i] * h(i, j) * s2.db[j] + s1.ds[i] * x_u(i, j) * s2.ds[j];
      }
    }
  }

  // X = H^{-1} [ds1 . T1 | db1 . U1^T], one solve for both halves.
  if (want_tau0) {
    MatrixView x_t = x.block(0, 0, n, n);
    if (prefix.identity()) {
      set_identity(x_t);
    } else {
      linalg::copy(*prefix.t, x_t);
      linalg::scale_rows(s1.ds.data(), x_t);
    }
  }
  if (prefix.identity()) {
    set_identity(x_u);
  } else {
    const Matrix& u1 = *prefix.u;
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < n; ++i) x_u(i, j) = s1.db[i] * u1(j, i);
    }
  }
  linalg::LUFactorization lu = linalg::lu_factor(std::move(h));
  linalg::lu_solve(lu, Trans::No, x);
  h = std::move(lu.factors);

  // G(0,l) = -T2^T . diag(ds2) . X_u, before X_u is rescaled for G(l,l).
  if (want_0tau) {
    y.resize(n, n);
    linalg::copy(x_u, y);
    if (suffix.identity()) {
      linalg::copy(y, g_0tau);
      for (idx j = 0; j < n; ++j) {
        for (idx i = 0; i < n; ++i) g_0tau(i, j) = -g_0tau(i, j);
      }
    } else {
      linalg::scale_rows(s2.ds.data(), y);
      linalg::gemm(Trans::Yes, Trans::No, -1.0, *suffix.t, y, 0.0, g_0tau);
    }
  }
  // G(l,0) = U2 . diag(db2) . X_t and G(l,l) = U2 . diag(db2) . X_u.
  if (suffix.identity()) {
    if (want_tau0) linalg::copy(x.block(0, 0, n, n), g_tau0);
    linalg::copy(x_u, g_tautau);
    return;
  }
  linalg::scale_rows(s2.db.data(), x);
  if (want_tau0) {
    linalg::gemm(Trans::No, Trans::No, 1.0, *suffix.u, x.block(0, 0, n, n),
                 0.0, g_tau0);
  }
  linalg::gemm(Trans::No, Trans::No, 1.0, *suffix.u, x_u, 0.0, g_tautau);
}

BoundaryStack::BoundaryStack(idx n, idx clusters, StratAlgorithm algorithm,
                             idx qr_block)
    : n_(n),
      clusters_(clusters),
      scratch_(std::make_shared<PushScratch>()),
      acc_(make_stabilizer(n, algorithm, qr_block, scratch_)),
      slots_(static_cast<std::size_t>(clusters)) {
  DQMC_CHECK(clusters >= 1);
  for (idx b = 1; b < clusters; ++b) {
    UDT& slot = slots_[static_cast<std::size_t>(b)];
    slot.u.resize(n, n);
    slot.d.resize(n);
    slot.t.resize(n, n);
  }
}

bool BoundaryStack::complete() const {
  return boundary_ >= 0 && boundary_ == start_boundary(dir_) && !acc_->empty();
}

void BoundaryStack::start(SweepDirection d) {
  dir_ = d;
  boundary_ = start_boundary(d);
  acc_->reset();
}

idx BoundaryStack::next_cluster() const {
  DQMC_CHECK_MSG(boundary_ >= 0, "the stack is not started");
  return dir_ == SweepDirection::kUp ? boundary_ : boundary_ - 1;
}

void BoundaryStack::push(const Matrix& bhat) {
  const idx b = boundary_;
  DQMC_CHECK_MSG(b >= 0, "push needs a started stack");
  const bool up = dir_ == SweepDirection::kUp;
  boundary_ = -1;  // until the push below completes
  if (b == start_boundary(dir_)) {
    acc_->reset();  // the previous half's chain has been closed against
  } else {
    // The carried side at b is what the opposite half finds stored there.
    UDT& slot = slots_[static_cast<std::size_t>(b)];
    slot.u = acc_->u();
    slot.d = acc_->d();
    slot.t = acc_->t();
  }
  if (up) {
    acc_->push(bhat);
  } else {
    acc_->push_transposed(bhat);
  }
  const idx next = up ? b + 1 : b - 1;
  if (next == start_boundary(opposite(dir_))) dir_ = opposite(dir_);
  boundary_ = next;
}

ChainFactors BoundaryStack::stored(idx b) const {
  DQMC_CHECK(b >= 0 && b <= clusters_);
  if (b == start_boundary(dir_)) {
    DQMC_CHECK_MSG(!acc_->empty(), "the stack holds no chain; rebuild it");
    return ChainFactors::of(*acc_);
  }
  if (b == start_boundary(opposite(dir_))) return ChainFactors{};
  return ChainFactors::of(slots_[static_cast<std::size_t>(b)]);
}

void BoundaryStack::close(Matrix& g) {
  DQMC_CHECK_MSG(boundary_ >= 0, "close needs a positioned stack");
  const ChainFactors carried = boundary_ == start_boundary(dir_)
                                   ? ChainFactors{}
                                   : ChainFactors::of(*acc_);
  const ChainFactors kept = stored(boundary_);
  const bool up = dir_ == SweepDirection::kUp;
  g.resize(n_, n_);
  close_boundary(up ? carried : kept, up ? kept : carried, g, MatrixView(),
                 MatrixView(), scratch_->c, scratch_->work, y_);
  ++evaluations_;
}

int BoundaryStack::det_sign() const {
  DQMC_CHECK_MSG(complete(), "det_sign needs a complete stack");
  return graded_det_sign(acc_->u(), acc_->d(), acc_->t());
}

StratStats BoundaryStack::stats() const {
  StratStats out;
  out.evaluations = evaluations_;
  out.steps = acc_->stats().steps;
  out.pivot_displacement = acc_->stats().pivot_displacement;
  return out;
}

StackWalk::StackWalk(const BoundaryStack& stack, StratAlgorithm algorithm,
                     idx qr_block)
    : stack_(stack),
      dir_(stack.direction()),
      boundary_(stack.boundary()),
      acc_(make_stabilizer(stack.n(), algorithm, qr_block)) {
  DQMC_CHECK_MSG(stack.complete(), "a walk needs a complete stack");
}

bool StackWalk::done() const {
  return boundary_ == stack_.start_boundary(opposite(dir_));
}

idx StackWalk::next_cluster() const {
  DQMC_CHECK_MSG(!done(), "the walk has crossed every cluster");
  return dir_ == SweepDirection::kUp ? boundary_ : boundary_ - 1;
}

void StackWalk::advance(const Matrix& bhat) {
  DQMC_CHECK_MSG(!done(), "the walk has crossed every cluster");
  if (dir_ == SweepDirection::kUp) {
    acc_->push(bhat);
    ++boundary_;
  } else {
    acc_->push_transposed(bhat);
    --boundary_;
  }
}

void StackWalk::close(MatrixView g_tautau, MatrixView g_tau0,
                      MatrixView g_0tau) {
  const ChainFactors carried =
      acc_->empty() ? ChainFactors{} : ChainFactors::of(*acc_);
  const ChainFactors kept = stack_.stored(boundary_);
  const bool up = dir_ == SweepDirection::kUp;
  close_boundary(up ? carried : kept, up ? kept : carried, g_tautau, g_tau0,
                 g_0tau, h_, x_, y_);
}

}  // namespace dqmc::core
