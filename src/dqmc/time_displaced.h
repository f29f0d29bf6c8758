// Time-displaced (unequal-time) Green's functions — the "dynamic
// measurements" side of QUEST that the paper cites as part of the package.
//
// For a fixed HS configuration and tau_l = l * dtau:
//   G(l, 0)_{ij} =  <c_i(tau_l) c^dag_j(0)> = B_l...B_1 (I + B_L...B_1)^{-1}
//   G(0, l)_{ij} = -<c^dag_j(tau_l) c_i(0)> = -(I + C_l A_l)^{-1} C_l
// with A_l = B_l...B_1 (prefix) and C_l = B_L...B_{l+1} (suffix).
//
// Stability: the chain at each cluster boundary is the boundary stack of
// boundary_stack.h — a graded prefix U1 D1 T1 and the graded decomposition
// U2 D2 T2 of the transposed suffix — and the inverses come from its
// two-sided closure (close_boundary), whose one LU of an O(1)-bounded H
// yields all three families; G(0, l) = -C (I + A C)^{-1} by push-through.
//
// The chain is walked one cluster segment [b_c, b_{c+1}) at a time: each
// spin closes the boundary b_c exactly, then propagates the segment's
// slices by single B steps. The walk is a StackWalk over the stored side of
// a complete boundary stack — the engine's own after a sweep, whose slots
// hold every suffix (after a down sweep) or every prefix (after an up one)
// — carrying the other side in one accumulator per spin, so each boundary
// costs one push and one closure. The final slice l = L is a closure of its
// own. The streaming entry point hands each finished segment to a sink, so
// only one segment is ever held in memory; compute() and compute_both() are
// the sink that keeps every slice, over a private stack built from the
// field.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "dqmc/boundary_stack.h"
#include "dqmc/cluster_store.h"
#include "dqmc/graded.h"
#include "dqmc/hs_field.h"
#include "hubbard/bmatrix.h"

namespace dqmc::core {

using hubbard::BMatrixFactory;
using hubbard::Spin;

/// All time-displaced Green's functions of one configuration and spin.
struct TimeDisplaced {
  /// g_tau0[l] = G(l, 0), l = 0..L (l = 0 is the equal-time G(0,0);
  /// l = L equals I - G(0,0) by the anti-periodic boundary).
  std::vector<Matrix> g_tau0;
  /// g_0tau[l] = G(0, l) = -<c^dag(tau_l) c(0)> matrices, l = 0..L.
  std::vector<Matrix> g_0tau;
  /// g_tautau[l] = G(l, l), the equal-time Green's function at slice l
  /// (needed for densities at displaced times, e.g. the disconnected part
  /// of the spin susceptibility).
  std::vector<Matrix> g_tautau;
};

/// One slice of one spin as the dynamic measurement reads it: G(l,0),
/// G(0,l) and the diagonal of G(l,l).
struct DisplacedSlice {
  const Matrix* g_tau0 = nullptr;
  const Matrix* g_0tau = nullptr;
  /// G(l,l)(i,i) lives at tautau_diag[i * tautau_stride].
  const double* tautau_diag = nullptr;
  idx tautau_stride = 1;

  double tautau(idx i) const { return tautau_diag[i * tautau_stride]; }
};

/// Slice l of a materialized TimeDisplaced.
DisplacedSlice displaced_slice(const TimeDisplaced& td, idx l);

/// Storage of one spin's segment walk. Sized on first use and reused by
/// every later walk it is handed, so repeated walks take no new pages.
struct DisplacedSpinBuffers {
  std::vector<Matrix> g_tau0;    ///< G(l,0) at the segment's slices
  std::vector<Matrix> g_0tau;    ///< G(0,l) at the segment's slices
  std::vector<Matrix> g_tautau;  ///< G(l,l) per slice (materializing walks)
  Matrix tautau_diag;  ///< column i: diagonal of G(l,l) at segment slice i
  Matrix running;      ///< G(l,l) at the latest slice
};

/// Both spins' walk storage ([0] = Up, [1] = Down).
struct DisplacedBuffers {
  std::array<DisplacedSpinBuffers, 2> spin;
};

/// The slices [begin, end) of one streamed segment for every walked spin.
/// Its views are valid until the sink returns.
struct DisplacedSegment {
  idx begin = 0;
  idx end = 0;
  const DisplacedBuffers* buffers = nullptr;

  DisplacedSlice slice(Spin s, idx l) const;
};

class TimeDisplacedGreens {
 public:
  /// References are retained; factory and field must outlive this object.
  /// `cluster_size` controls how often the chain is re-stratified (the
  /// paper's k = 10 default is fine); `qr_block` is the panel width of the
  /// QR-based stabilizers (EngineConfig::qr_block).
  TimeDisplacedGreens(const BMatrixFactory& factory, const HSField& field,
                      idx cluster_size = 10,
                      StratAlgorithm algorithm = StratAlgorithm::kPrePivot,
                      idx qr_block = linalg::kQrBlock);

  idx n() const { return factory_.n(); }
  idx slices() const { return field_.slices(); }

  /// Compute all three families for spin `s` from the current field.
  TimeDisplaced compute(Spin s) const;

  /// Both spins ([0] = Up, [1] = Down) from one cluster rebuild, the two
  /// spins running side by side; bitwise equal to compute(Up), compute(Down).
  std::array<TimeDisplaced, 2> compute_both() const;

  /// Receives each finished segment, in slice order, on the calling thread.
  using SegmentSink = std::function<void(const DisplacedSegment&)>;

  /// Walk both spins one cluster segment at a time over the stored sides
  /// of `stored` ([0] = Up): complete stacks built from this field with
  /// this cluster size, algorithm and QR panel width (the engine's, from
  /// DqmcEngine::stored_stacks()). Each segment goes to `sink`: [b_c,
  /// b_{c+1}) for every cluster c and [L, L + 1), in the order of the
  /// stacks' next half — ascending over stored suffixes, descending over
  /// stored prefixes. Each walk forms every cluster product once, through
  /// the factory. Only G(l,l)'s diagonal is kept. Every slice is bitwise
  /// what compute_both() yields.
  void stream(std::array<const BoundaryStack*, 2> stored,
              DisplacedBuffers& buffers, const SegmentSink& sink) const;

  /// Convenience for the common observable: the local time-displaced
  /// Green's function Gloc(tau_l) = (1/N) tr G(l,0), l = 0..L.
  Vector local_greens(Spin s) const;

 private:
  void walk(std::array<const BoundaryStack*, 2> stored,
            std::span<const Spin> spins, DisplacedBuffers& buffers,
            bool keep_tautau, const SegmentSink& sink) const;
  /// The walk over private stacks built from the field, every slice kept;
  /// entries of spins not in `spins` stay empty.
  std::array<TimeDisplaced, 2> materialize(std::span<const Spin> spins) const;

  const BMatrixFactory& factory_;
  const HSField& field_;
  idx cluster_size_;
  StratAlgorithm algorithm_;
  idx qr_block_;
};

/// G(l,0), G(0,l) and G(l,l) at one cluster boundary.
struct DisplacedBoundary {
  Matrix g_tau0;    ///< (I + A C)^{-1} A
  Matrix g_0tau;    ///< -(I + C A)^{-1} C
  Matrix g_tautau;  ///< (I + A C)^{-1}
};

/// Stable closure of one boundary with A = prefix (U D T) and the suffix C
/// given as the graded decomposition of C^T (what pushing Bhat_j^T for
/// j = m-1 down to c accumulates): close_boundary of boundary_stack.h. A
/// null prefix/suffix means the identity (l = 0 / l = L edges). Exposed for
/// tests.
DisplacedBoundary displaced_greens(const UDT* prefix, const UDT* suffix);

}  // namespace dqmc::core
