#include "dqmc/momentum_transform.h"

#include <algorithm>

#include "common/error.h"
#include "parallel/parallel_for.h"

namespace dqmc::core {

namespace {

using linalg::Cplx;

/// One plane / signal per task is already thousands of flops.
constexpr par::ForOptions kPlaneOptions{.grain = 1};

}  // namespace

MomentumTransform::MomentumTransform(const hubbard::Lattice& lat)
    : lx_(lat.lx()),
      ly_(lat.ly()),
      layers_(lat.layers()),
      plane_(lat.sites_per_layer()),
      n_(lat.num_sites()),
      ndisp_(lat.num_displacements()),
      fft2_(lat.lx(), lat.ly()) {
  pair_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  for (idx j = 0; j < n_; ++j) {
    for (idx i = 0; i < n_; ++i) {
      pair_[static_cast<std::size_t>(i + n_ * j)] =
          static_cast<std::int32_t>(lat.displacement_index(j, i));
    }
  }
  plane_pair_.resize(static_cast<std::size_t>(plane_) *
                     static_cast<std::size_t>(plane_));
  for (idx jp = 0; jp < plane_; ++jp) {
    for (idx ip = 0; ip < plane_; ++ip) {
      // Same-layer pairs: layer 0 stands in for every layer (the in-plane
      // displacement only depends on the plane coordinates).
      plane_pair_[static_cast<std::size_t>(ip + plane_ * jp)] =
          static_cast<std::int32_t>(lat.displacement_index(jp, ip) -
                                    plane_ * (layers_ - 1));
    }
  }
}

void MomentumTransform::project_plane(const double* plane, double* out,
                                      Workspace& ws) const {
  ws.plane.resize(static_cast<std::size_t>(plane_));
  for (idx p = 0; p < plane_; ++p) ws.plane[static_cast<std::size_t>(p)] = {plane[p], 0.0};
  fft2_.forward(ws.plane.data(), ws.fft);
  // Real input: the forward transform's real part IS sum_d cos(k.d) f(d),
  // in the momentum order nx + Lx * ny that Lattice::momenta() uses.
  for (idx p = 0; p < plane_; ++p) out[p] = ws.plane[static_cast<std::size_t>(p)].re;
}

void MomentumTransform::project_planes(const double* planes, idx count,
                                       idx in_stride, double* out,
                                       idx out_stride) const {
  DQMC_CHECK(count >= 0 && in_stride >= plane_ && out_stride >= plane_);
  par::parallel_for_chunks(
      0, count,
      [&](par::index_t lo, par::index_t hi) {
        Workspace ws;  // per-chunk scratch; per-plane arithmetic is fixed
        for (par::index_t p = lo; p < hi; ++p) {
          project_plane(planes + p * in_stride, out + p * out_stride, ws);
        }
      },
      kPlaneOptions);
}

void MomentumTransform::correlate(const double* a, const double* b,
                                  double* out, Workspace& ws) const {
  const idx p_sz = plane_;
  const idx z_ct = layers_;
  const std::size_t spectra = static_cast<std::size_t>(z_ct * p_sz);
  ws.a_hat.resize(spectra);
  ws.b_hat.resize(spectra);
  ws.acc.resize(static_cast<std::size_t>(p_sz));

  // Forward-transform every layer of both inputs once.
  for (idx z = 0; z < z_ct; ++z) {
    Cplx* ah = ws.a_hat.data() + z * p_sz;
    Cplx* bh = ws.b_hat.data() + z * p_sz;
    const double* az = a + z * p_sz;
    const double* bz = b + z * p_sz;
    for (idx p = 0; p < p_sz; ++p) {
      ah[p] = {az[p], 0.0};
      bh[p] = {bz[p], 0.0};
    }
    fft2_.forward(ah, ws.fft);
    fft2_.forward(bh, ws.fft);
  }

  // One inverse transform per layer offset: C_dz = sum_z IFFT[conj(A_z)
  // .* B_{z+dz}], accumulated spectrally first (IFFT is linear).
  for (idx dzi = 0; dzi < 2 * z_ct - 1; ++dzi) {
    const idx dz = dzi - (z_ct - 1);
    std::fill(ws.acc.begin(), ws.acc.end(), Cplx{0.0, 0.0});
    const idx z_lo = std::max<idx>(0, -dz);
    const idx z_hi = std::min<idx>(z_ct, z_ct - dz);
    for (idx z = z_lo; z < z_hi; ++z) {
      const Cplx* ah = ws.a_hat.data() + z * p_sz;
      const Cplx* bh = ws.b_hat.data() + (z + dz) * p_sz;
      Cplx* acc = ws.acc.data();
      for (idx p = 0; p < p_sz; ++p) {
        // conj(ah) * bh
        acc[p].re += ah[p].re * bh[p].re + ah[p].im * bh[p].im;
        acc[p].im += ah[p].re * bh[p].im - ah[p].im * bh[p].re;
      }
    }
    fft2_.inverse(ws.acc.data(), ws.fft);
    double* o = out + p_sz * dzi;
    for (idx p = 0; p < p_sz; ++p) o[p] += ws.acc[static_cast<std::size_t>(p)].re;
  }
}

MeasurementWorkspace::MeasurementWorkspace(const hubbard::Lattice& lat)
    : lx(lat.lx()),
      ly(lat.ly()),
      layers(lat.layers()),
      n(lat.num_sites()),
      transform(lat) {
  // d-wave neighbour table in the form-factor sign order (+x, -x, +y, -y).
  const idx deltas[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  dwave_nbr.resize(static_cast<std::size_t>(n) * 4);
  for (idx i = 0; i < n; ++i) {
    for (int d = 0; d < 4; ++d) {
      dwave_nbr[static_cast<std::size_t>(i) * 4 + static_cast<std::size_t>(d)] =
          lat.neighbor(i, deltas[d][0], deltas[d][1]);
    }
  }
  nup.resize(static_cast<std::size_t>(n));
  ndn.resize(static_cast<std::size_t>(n));
  fup = linalg::Vector(lat.num_displacements());
  fdn = linalg::Vector(lat.num_displacements());
  ex = linalg::Vector(lat.num_displacements());
  mvec = linalg::Vector(n);
  colsum = linalg::Vector(n);
  eps = linalg::Vector(n);
  for (idx i = 0; i < n; ++i) {
    const auto c = lat.coord(i);
    eps[i] = ((c.x + c.y) % 2 == 0) ? 1.0 : -1.0;
  }
}

}  // namespace dqmc::core
