// Matrix clustering (Sections III-A2, III-B2): k consecutive B-matrices
// grouped into cluster products Bhat_c = B_{ck+k-1} ... B_{ck} (per spin),
// cutting the number of graded QR steps by k.
//
// The store keeps every product of a rotation, for the readers that need a
// whole one: the full-rotation StratificationEngine reference and the
// benches that time it. The engine keeps none (it pushes each product
// onto its boundary stacks as soon as it is formed, engine.h), and neither
// does the time-displaced walk (form_cluster_product). With a backend
// chain attached the products are computed through the ComputeBackend
// (Section VI-A).
#pragma once

#include <vector>

#include "backend/bchain.h"
#include "common/profiler.h"
#include "dqmc/hs_field.h"
#include "hubbard/bmatrix.h"

namespace dqmc::core {

using hubbard::BMatrixFactory;
using hubbard::Spin;
using linalg::Matrix;

class ClusterStore {
 public:
  /// Covers all `field.slices()` slices with clusters of `cluster_size`
  /// (the paper's k = 10 default); the final cluster may be smaller when
  /// L is not a multiple of k. References to `factory` and `field` are
  /// retained; both must outlive the store.
  ClusterStore(const BMatrixFactory& factory, const HSField& field,
               idx cluster_size);

  idx num_clusters() const { return num_clusters_; }
  idx cluster_size() const { return cluster_size_; }
  /// First slice of cluster c.
  idx cluster_begin(idx c) const { return c * cluster_size_; }
  /// One-past-last slice of cluster c.
  idx cluster_end(idx c) const;
  /// Cluster containing slice s.
  idx cluster_of(idx s) const { return s / cluster_size_; }

  /// Route cluster products through backend chains (B resident on the
  /// backend): spin up's through `up`, spin down's through `dn` (item 0 of
  /// each; the spins are formed one after the other, so one chain may serve
  /// both). The chains must wrap the same B as `factory` and outlive the
  /// store; nulls disable the backend path.
  void attach_backend(backend::BackendBChain* up, backend::BackendBChain* dn);
  bool backend_attached() const { return chain_[0] != nullptr; }

  /// Recompute cluster c for both spins from the current field (blocking),
  /// bracketed as one Phase::kClustering call on `prof`.
  void rebuild(idx c, Profiler* prof = nullptr);
  /// Recompute everything (initialization and after global field changes).
  void rebuild_all(Profiler* prof = nullptr);

  /// Cluster product Bhat_c.
  const Matrix& cluster(Spin s, idx c) const;

  /// Factor sequence for the Green's function at the boundary BEFORE
  /// cluster `start`: rightmost-first order
  /// [Bhat_start, Bhat_{start+1}, ..., Bhat_{start-1}] (cyclic).
  std::vector<const Matrix*> rotation(Spin s, idx start) const;

 private:
  /// The V diagonals of cluster c's slices for spin s, in slice order.
  std::vector<linalg::Vector> diagonals(Spin s, idx c) const;

  const BMatrixFactory& factory_;
  const HSField& field_;
  idx cluster_size_;
  idx num_clusters_;
  backend::BackendBChain* chain_[2] = {nullptr, nullptr};
  std::vector<Matrix> clusters_[2];  // [spin][cluster]
};

/// Metrics of one formation of both spins' products of a cluster of
/// `factors` slices that took `seconds`: the `cluster.rebuilds` count and,
/// when timed, the `cluster.gflops` rate.
void record_cluster_products(const BMatrixFactory& factory, idx factors,
                             double seconds);

/// Spin s's product B_{end-1} ... B_begin of the slices [begin, end) of
/// `field` through the factory's appliers into `out` (n x n; `work` is n x n
/// scratch): bitwise what a structured BackendBChain forms.
void form_cluster_product(const BMatrixFactory& factory, const HSField& field,
                          Spin s, idx begin, idx end, Matrix& out,
                          Matrix& work);

}  // namespace dqmc::core
