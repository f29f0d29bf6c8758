// FFT-planned momentum projections and displacement-space correlators.
//
// Every translation-averaged observable is a circular cross-correlation
// over the periodic lattice plane: C(d) = sum_j A(j) B(j + d) is the
// inverse transform of conj(A_hat) .* B_hat, and the momentum projection
// n_k = sum_d cos(k . d) F(d) is the real part of the forward transform.
// A MomentumTransform plans both per Lattice — FFT plans for the in-plane
// Lx x Ly geometry (mixed radix, so odd edges work), explicit layer
// folding for the open z direction, and a cached site-pair ->
// displacement-index table that keeps the Lattice accumulation convention
// without per-pair div/mod arithmetic.
//
// MeasurementWorkspace bundles the transform with all per-sample scratch
// (density vectors, displacement tables, stencil matrices) so the
// measurement kernels stop churning the allocator — one workspace per
// walker, reused across every configuration it measures. The O(N^2)
// site-pair loops are the test oracle (tests/testing/measure_reference.h);
// the FFT pipeline matches them to ~1e-15.
#pragma once

#include <cstdint>
#include <vector>

#include "dqmc/time_displaced.h"
#include "hubbard/lattice.h"
#include "linalg/fft.h"
#include "linalg/matrix.h"

namespace dqmc::core {

using linalg::idx;

/// The measurement path: the FFT pipeline is the only one. The name, its
/// one enumerator, EngineConfig::measure and the two-argument workspace
/// constructor stay only because the wall-clock benchmark (benchmark/)
/// still spells them; nothing branches on them.
enum class MeasureKind { kFft };

class MomentumTransform {
 public:
  /// Per-call scratch so one immutable transform serves many threads.
  struct Workspace {
    std::vector<linalg::Cplx> plane;        ///< one complex lattice plane
    std::vector<linalg::Cplx> acc;          ///< spectral accumulation plane
    std::vector<linalg::Cplx> a_hat, b_hat; ///< per-layer spectra
    linalg::Fft2::Workspace fft;
  };

  explicit MomentumTransform(const hubbard::Lattice& lat);

  idx plane_size() const { return plane_; }
  idx num_sites() const { return n_; }
  idx num_displacements() const { return ndisp_; }

  /// Cached lattice.displacement_index(j, i) — the displacement slot d
  /// with site i at site j + d. Layout: i + num_sites() * j.
  std::int32_t pair_index(idx i, idx j) const {
    return pair_[static_cast<std::size_t>(i + n_ * j)];
  }
  const std::int32_t* pair_data() const { return pair_.data(); }

  /// In-plane analogue for same-layer pairs: plane_pair_data()[ip +
  /// plane_size() * jp] is the in-plane displacement slot of plane sites
  /// (ip, jp) — what the layer-diagonal gk_tau gather indexes by.
  const std::int32_t* plane_pair_data() const { return plane_pair_.data(); }

  /// out[k] = sum_d cos(k . d) plane[d] for every momentum, ordered like
  /// Lattice::momenta(); `plane` is one in-plane displacement table
  /// (plane_size() values, x fastest).
  void project_plane(const double* plane, double* out, Workspace& ws) const;

  /// Batched projection of `count` planes (plane p at planes + p *
  /// in_stride, output row p at out + p * out_stride), parallel over
  /// planes with chunk-independent per-plane arithmetic.
  void project_planes(const double* planes, idx count, idx in_stride,
                      double* out, idx out_stride) const;

  /// out[d] += sum_j a(j) b(j + d) over all sites j and every displacement
  /// slot d (periodic in plane, open across layers). `a`, `b` hold
  /// num_sites() values; `out` holds num_displacements() values and is
  /// accumulated into, not overwritten.
  void correlate(const double* a, const double* b, double* out,
                 Workspace& ws) const;

 private:
  idx lx_, ly_, layers_, plane_, n_, ndisp_;
  linalg::Fft2 fft2_;
  std::vector<std::int32_t> pair_;
  std::vector<std::int32_t> plane_pair_;
};

/// All per-walker measurement state that outlives one sample: the planned
/// transform, the cached neighbour table, and reusable scratch.
/// Not thread-safe — one workspace per concurrently-measuring walker.
struct MeasurementWorkspace {
  explicit MeasurementWorkspace(const hubbard::Lattice& lat);
  MeasurementWorkspace(const hubbard::Lattice& lat, MeasureKind)
      : MeasurementWorkspace(lat) {}

  idx lx = 0, ly = 0, layers = 0, n = 0;

  MomentumTransform transform;
  MomentumTransform::Workspace mt_ws;
  std::vector<idx> dwave_nbr;              ///< n x 4 d-wave neighbour table

  // Equal-time scratch.
  std::vector<double> nup, ndn;
  linalg::Vector fup, fdn, ex, mvec, colsum;
  linalg::Matrix stencil1, stencil2;  ///< pair_d row/column passes

  // Dynamic scratch.
  linalg::Vector eps;
  std::vector<double> gk_planes;  ///< (L+1) gathered planes, batched FFT
  /// Segment buffers of the streamed time-displaced walk, sized by the
  /// first dynamic measurement.
  DisplacedBuffers displaced;
};

}  // namespace dqmc::core
