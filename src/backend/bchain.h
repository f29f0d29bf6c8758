// Backend-resident DQMC chain operations: matrix clustering (Algorithm 5)
// and Green's function wrapping (Algorithm 7) from Section VI, expressed
// against the ComputeBackend interface so the exact same call sequence runs
// on the host task runtime or the simulated GPU.
//
// One chain serves `items` independent chains (an engine's two: one item
// per spin): every composite issues the batched ComputeBackend calls over
// the items it names, so both spins of a walker can share one enqueue. A
// cluster product on a synchronous backend runs its items side by side
// instead, one task per item issuing one-item calls: there a batched call
// forks and joins its items per call, at every level of the product.
//
// The kinetic factor B = e^{-dtau K} is fixed for the whole run ("B is
// fixed and it is computed and stored at the start of the simulation") and
// spin-independent, so ONE resident copy serves every item. In
// production that copy is the structured operator (the exact Kronecker
// product, or the checkerboard bond table), replayed in place by
// kinetic_apply: no GEMM anywhere in the chain. The dense-matrix
// constructor keeps the paper's GEMM formulation for the modelled Fig. 9 /
// Fig. 10 rows: B and B^{-1} resident as matrices, the shared operand
// gemm_batched packs once per cache block. Per-call traffic is only the
// diagonals V (N doubles per item) and the results — and the wrap can skip
// re-uploading an item's G entirely when its host copy is unchanged since
// the previous wrap downloaded it (delayed updates keep G resident between
// wraps).
#pragma once

#include <vector>

#include "backend/backend.h"

namespace dqmc::backend {

using linalg::Matrix;
using linalg::Vector;

class BackendBChain {
 public:
  /// GEMM mode: `b` is e^{-dtau K}, `binv` its inverse e^{+dtau K} (N x N),
  /// shared by all items — the paper's formulation, kept for the modelled
  /// GEMM rows of the Fig. 9/10 benches.
  BackendBChain(ComputeBackend& backend, ConstMatrixView b,
                ConstMatrixView binv, idx items = 1);
  /// Structured mode (production): ONE operator uploads once and every
  /// kinetic factor replays it in place over all items — no resident dense
  /// B, no GEMMs. Bitwise-identical results to the host factory's
  /// appliers (BMatrixFactory, KineticOperator).
  BackendBChain(ComputeBackend& backend, const linalg::KineticFactor& op,
                idx items = 1);

  idx n() const { return n_; }
  idx items() const { return items_; }
  ComputeBackend& backend() { return backend_; }
  /// True when the kinetic factor is a structured operator (not GEMMs).
  bool structured() const { return kinetic_ != nullptr; }

  /// Matrix clustering: out[i] = B_{k-1} ... B_1 B_0 for entry i with
  /// B_l = diag(vs[i][l]) * B, formed in the workspace of chain item i
  /// (per-item arithmetic does not depend on which item or how many). All
  /// entries must have the same factor count k; per level one batched V
  /// upload (pipelined behind the previous GEMM) and one Algorithm 5 row
  /// scaling, (k-1) batched GEMMs, one batched download — on a synchronous
  /// backend, the same sequence per item, one task per item.
  std::vector<Matrix> cluster_product(
      const std::vector<std::vector<Vector>>& vs);
  /// The same composite downloading entry i into out[i] (n x n each), so a
  /// caller that keeps one buffer per item allocates nothing per product.
  void cluster_product_into(const std::vector<std::vector<Vector>>& vs,
                            const std::vector<MatrixView>& out);

  /// Wrapping: g_i <- B_i g_i B_i^{-1} with B_i = diag(v_i) * B, i.e.
  /// g_i <- diag(v_i) (B g_i B^{-1}) diag(v_i)^{-1}, scaled by the
  /// Algorithm 7 fused kernel, for chain item items[i] (default: every
  /// item, in order). Uploads only the items whose host g changed
  /// (`host_unchanged[i]` asserts g_i is bitwise what item items[i]'s
  /// previous wrap downloaded, letting the resident copy stand in for the
  /// upload), then runs two structured applies (or shared-operand batched
  /// GEMMs), one batched scaling and one batched download. On a
  /// synchronous backend, calls on disjoint items may run concurrently.
  ///
  /// `reverse` runs the mirror composite of a sweep from beta down to 0,
  /// g_i <- B^{-1} (diag(v_i) g_i diag(v_i)^{-1}) B: the same fused
  /// scaling first, then the inverse apply on the left and the forward one
  /// on the right. With v_i the inverse diagonal of slice l (e^{-sigma nu
  /// h}), that is G(l-1) = B_l^{-1} G(l) B_l.
  void wrap(const std::vector<MatrixView>& g,
            const std::vector<const Vector*>& v,
            const std::vector<char>& host_unchanged,
            std::vector<idx> items = {}, bool reverse = false);

  /// Wrap uploads elided for `item` because its G was still resident
  /// (Section VI-B's "keep G on the device between wraps" optimization).
  std::uint64_t wrap_uploads_skipped(idx item) const {
    return wrap_uploads_skipped_[static_cast<std::size_t>(item)];
  }

 private:
  void alloc_items();
  /// `items`, or 0..count-1 when empty; checked against the chain.
  std::vector<idx> resolve(std::vector<idx> items, std::size_t count) const;

  ComputeBackend& backend_;
  idx n_, items_;
  std::unique_ptr<MatrixHandle> b_, binv_;  // ONE resident copy (GEMM mode)
  std::unique_ptr<KineticHandle> kinetic_;  // ONE operator (structured mode)
  std::unique_ptr<MatrixHandle> ident_;     // identity seed (structured)
  // Per-item workspaces (t_ in GEMM mode only). Backend-op arguments must
  // stay alive until the stream drains, so the diagonals are members too.
  std::vector<std::unique_ptr<MatrixHandle>> g_, t_, a_;
  std::vector<std::unique_ptr<VectorHandle>> v_;
  std::vector<char> g_resident_;
  std::vector<std::uint64_t> wrap_uploads_skipped_;
};

/// Flop count of one cluster product of `k` factors of size n whose
/// kinetic apply to n columns costs `apply_flops` (2 n^3 for a GEMM,
/// KineticOperator::apply_flops(n) otherwise): (k-1) applies + k row
/// scalings.
double cluster_product_flops(idx n, idx k, double apply_flops);

/// Flop count of one wrap of size n: two kinetic applies + the scaling.
double wrap_flops(idx n, double apply_flops);

}  // namespace dqmc::backend
