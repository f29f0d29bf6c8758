// Boundary stack: the equal-time Green's function at every cluster boundary
// of a sweep that runs up (0 -> beta) and down (beta -> 0) in turn.
//
// With the m cluster products Bhat_0 ... Bhat_{m-1} of one spin, G at the
// boundary before cluster c is (I + A_c C_c)^{-1} with the prefix
// A_c = Bhat_{c-1} ... Bhat_0 and the suffix C_c = Bhat_{m-1} ... Bhat_c.
// Prefixes accumulate as U1 diag(d1) T1 by left pushes of Bhat_j; suffixes
// as the graded decomposition U2 diag(d2) T2 of C^T by left pushes of
// Bhat_j^T (read as transposed GEMM operands), so C = T2^T diag(d2) U2^T
// has its orthogonal factor on the right.
//
// The stack keeps one slot per interior boundary (1 .. m-1) and one
// accumulator, Bauer's stack of partial decompositions:
//   * going up, boundary c closes the carried prefix A_c against the suffix
//     C_c the last down half left in slot c; crossing cluster c stores A_c
//     in slot c and pushes Bhat_c onto the accumulator;
//   * going down is the mirror image: boundary c closes the prefix A_c in
//     slot c against the carried suffix C_c; crossing cluster c-1 stores
//     C_c in slot c and pushes Bhat_{c-1}^T.
// A half ends with the full chain in the accumulator (A_m going up, C_0
// going down), which is what the next half's first boundary closes against
// the identity; the stack then turns. Every product is pushed exactly once:
// m graded pushes per spin and sweep, against m^2 for re-stratifying the
// whole rotation at every boundary.
//
// Every side is "pushes from the identity in cluster order": a suffix over
// m-1 down to c, a prefix over 0 .. c-1. A stack rebuilt from scratch
// (start() plus m pushes) is therefore bitwise the stack a sweep leaves,
// and a StackWalk over the stored side closes every boundary bitwise as the
// next half will.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dqmc/stabilizer.h"
#include "hubbard/model.h"
#include "linalg/matrix.h"

namespace dqmc::core {

using hubbard::Spin;
using linalg::ConstMatrixView;
using linalg::MatrixView;

/// Direction of a half sweep: kUp visits slices 0 .. L-1 (tau 0 -> beta),
/// kDown visits L-1 .. 0.
enum class SweepDirection : std::uint8_t { kUp, kDown };

inline SweepDirection opposite(SweepDirection d) {
  return d == SweepDirection::kUp ? SweepDirection::kDown
                                  : SweepDirection::kUp;
}
/// "up" / "down" (the checkpoint spelling).
const char* sweep_direction_name(SweepDirection d);

/// One side of the chain at a boundary as the closure reads it:
/// U diag(d) T, or the identity when u is null.
struct ChainFactors {
  const Matrix* u = nullptr;
  const Vector* d = nullptr;
  const Matrix* t = nullptr;

  static ChainFactors of(const UDT& x) { return {&x.u, &x.d, &x.t}; }
  static ChainFactors of(const Stabilizer& x) {
    return {&x.u(), &x.d(), &x.t()};
  }
  bool identity() const { return u == nullptr; }
};

/// Two-sided closure of one boundary with prefix A = U1 diag(d1) T1 and
/// suffix C, given as C^T = U2 diag(d2) T2. With d = Db^{-1} Ds elementwise
/// (split_scales),
///   I + A C = U1 D1b^{-1} H D2b^{-1} U2^T,
///   H       = D1b (U1^T U2) D2b + D1s (T1 T2^T) D2s,
/// and one LU of H closes every family:
///   G(l,l) = (I + A C)^{-1}       = U2 D2b H^{-1} D1b U1^T,
///   G(l,0) = (I + A C)^{-1} A     = U2 D2b H^{-1} D1s T1,
///   G(0,l) = -(I + C A)^{-1} C    = -T2^T D2s H^{-1} D1b U1^T.
/// g_tau0 and g_0tau are optional (an empty view skips them). h and x are
/// n x n scratch (x grows to n x 2n when g_tau0 is wanted); y is scratch
/// used only when g_0tau is wanted.
void close_boundary(const ChainFactors& prefix, const ChainFactors& suffix,
                    MatrixView g_tautau, MatrixView g_tau0, MatrixView g_0tau,
                    Matrix& h, Matrix& x, Matrix& y);

class BoundaryStack {
 public:
  /// A stack for chains of `clusters` n x n cluster products. Its slots
  /// are allocated here; no buffer of the stack is freed before the stack
  /// is. The stack starts empty: start() and m pushes build it.
  BoundaryStack(idx n, idx clusters, StratAlgorithm algorithm,
                idx qr_block = linalg::kQrBlock);

  idx n() const { return n_; }
  idx clusters() const { return clusters_; }
  /// Direction of the half the stack is in.
  SweepDirection direction() const { return dir_; }
  /// Boundary the stack sits at; -1 when it holds nothing (before start(),
  /// or after a push that threw).
  idx boundary() const { return boundary_; }
  /// First boundary of a half in direction d: 0 going up, m going down.
  idx start_boundary(SweepDirection d) const {
    return d == SweepDirection::kUp ? 0 : clusters_;
  }
  /// True at the first boundary of a half with the full chain held: the
  /// state a completed half (or a rebuild) leaves.
  bool complete() const;

  /// Drop everything and sit at the first boundary of a d-half with
  /// nothing carried: m pushes from here (in d's cluster order) rebuild
  /// the stack from scratch, ending complete at the start of the opposite
  /// half.
  void start(SweepDirection d);

  /// Cross the next cluster of the half: going up from boundary c, Bhat_c
  /// (keeping A_c in slot c); going down from boundary c, Bhat_{c-1}
  /// (keeping C_c in slot c). At the half's far end the stack turns.
  void push(const Matrix& bhat);
  /// The cluster the next push crosses.
  idx next_cluster() const;

  /// Equal-time G = (I + A C)^{-1} at the current boundary into g (sized
  /// n x n), computed in the push scratch.
  void close(Matrix& g);

  /// Sign of det(I + chain) for the full chain a complete stack holds
  /// (det(I + C^T) = det(I + C) for a stored suffix).
  int det_sign() const;

  /// The side a half in this stack's direction finds stored at boundary b
  /// (the suffix going up, the prefix going down): the full chain at the
  /// first boundary, the identity at the far end, slot b in between. Valid
  /// at the current boundary, and at every boundary while complete().
  ChainFactors stored(idx b) const;

  /// Closures (evaluations) and pushes (steps) since construction.
  StratStats stats() const;

 private:
  idx n_;
  idx clusters_;
  SweepDirection dir_ = SweepDirection::kUp;
  idx boundary_ = -1;
  std::uint64_t evaluations_ = 0;
  // Push scratch of the accumulator; the closure runs in it as well.
  std::shared_ptr<PushScratch> scratch_;
  std::unique_ptr<Stabilizer> acc_;
  std::vector<UDT> slots_;  ///< [boundary]; sized for 1 .. m-1
  Matrix y_;                ///< unused G(0,l) scratch of the closure
};

/// A walk over the stored side of a complete stack: it starts at the first
/// boundary of the stack's next half and crosses the clusters in that
/// half's order, carrying the other side in its own accumulator, without
/// touching the stack. Each closure is bitwise the one the half itself
/// would make at that boundary on the same field. The time-displaced
/// measurement walks this way (all three families at every boundary).
class StackWalk {
 public:
  /// `stack` must be complete() and outlive the walk; `algorithm` and
  /// `qr_block` must be the stack's for the bitwise guarantee.
  StackWalk(const BoundaryStack& stack, StratAlgorithm algorithm,
            idx qr_block = linalg::kQrBlock);

  idx boundary() const { return boundary_; }
  /// True once the walk has crossed every cluster.
  bool done() const;
  /// The cluster the next advance() crosses.
  idx next_cluster() const;
  /// Cross it: push its product onto the carried side.
  void advance(const Matrix& bhat);
  /// The three families at the current boundary (g_tau0 / g_0tau may be
  /// empty views).
  void close(MatrixView g_tautau, MatrixView g_tau0, MatrixView g_0tau);

 private:
  const BoundaryStack& stack_;
  SweepDirection dir_;
  idx boundary_;
  std::unique_ptr<Stabilizer> acc_;
  Matrix h_, x_, y_;
};

}  // namespace dqmc::core
