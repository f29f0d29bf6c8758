#include "dqmc/dynamic_measurements.h"

#include <array>
#include <cstdint>
#include <utility>

#include "parallel/parallel_for.h"

namespace dqmc::core {

namespace {

/// One tau slice per task: each slice owns disjoint outputs and runs a
/// fixed serial chain, so the measurement is bitwise at any thread count.
constexpr par::ForOptions kSliceOptions{.grain = 1};

/// Gloc(tau_l) for one slice, and the two parts of chi_AF(tau_l): the
/// staggered magnetization at tau_l (stag_mt[l]; its product with the one
/// at tau = 0 is the disconnected part) and the connected part (conn[l]).
void measure_slice_local(const MeasurementWorkspace& ws, idx l,
                         const DisplacedSlice& up, const DisplacedSlice& dn,
                         DynamicSample& out, Vector& stag_mt, Vector& conn) {
  const idx n = ws.n;
  const Matrix& gu10 = *up.g_tau0;
  const Matrix& gd10 = *dn.g_tau0;
  const Matrix& gu01 = *up.g_0tau;
  const Matrix& gd01 = *dn.g_0tau;

  // Local propagator.
  double tr = 0.0;
  for (idx i = 0; i < n; ++i) tr += 0.5 * (gu10(i, i) + gd10(i, i));
  out.gloc[l] = tr / static_cast<double>(n);

  // Disconnected (staggered magnetization) part.
  double stag = 0.0;
  for (idx i = 0; i < n; ++i) {
    const double mi = dn.tautau(i) - up.tautau(i);
    stag += ws.eps[i] * mi;
  }
  stag_mt[l] = stag;

  // Connected same-spin part:
  // sum_{ij} eps_i eps_j (-G(0,l)_{ji}) G(l,0)_{ij}, both spins.
  double c = 0.0;
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const double phase = ws.eps[i] * ws.eps[j];
      c -= phase * (gu01(j, i) * gu10(i, j) + gd01(j, i) * gd10(i, j));
    }
  }
  conn[l] = c;
}

/// In-plane displacement table of one slice, gathered into
/// its row of ws.gk_planes. Only same-layer pairs reach in-plane momenta,
/// so the gather walks the layer-diagonal blocks, N^2 / layers pairs.
void gather_slice_plane(MeasurementWorkspace& ws, idx l,
                        const DisplacedSlice& up, const DisplacedSlice& dn) {
  const idx n = ws.n;
  const idx plane = ws.transform.plane_size();
  const std::int32_t* ppairs = ws.transform.plane_pair_data();
  const Matrix& gu10 = *up.g_tau0;
  const Matrix& gd10 = *dn.g_tau0;
  double* f = ws.gk_planes.data() + l * plane;
  for (idx p = 0; p < plane; ++p) f[p] = 0.0;
  for (idx z = 0; z < ws.layers; ++z) {
    const idx base = z * plane;
    for (idx jp = 0; jp < plane; ++jp) {
      const std::int32_t* col = ppairs + plane * jp;
      const idx j = base + jp;
      for (idx ip = 0; ip < plane; ++ip) {
        f[col[ip]] += 0.5 * (gu10(base + ip, j) + gd10(base + ip, j));
      }
    }
  }
  for (idx p = 0; p < plane; ++p) f[p] /= static_cast<double>(n);
}

/// The dynamic observables of one configuration, fed one segment [begin,
/// end) of slices at a time, in any order. Every slice runs the same
/// arithmetic however the slices are segmented or ordered, so a streamed
/// walk (up or down) and a stored one give the same bits. Each segment's
/// slices run in parallel (one slice per task, disjoint outputs, so bitwise
/// at any thread count); chi_AF's disconnected part, which needs tau = 0,
/// and all L + 1 gathered planes are finished in one batch at the end.
class DynamicMeasure {
 public:
  DynamicMeasure(MeasurementWorkspace& ws, idx nl)
      : ws_(ws), nl_(nl), stag_mt_(Vector::zero(nl)), conn_(Vector::zero(nl)) {
    out_.gloc = Vector::zero(nl);
    out_.chi_af = Vector::zero(nl);
    const idx plane = ws.transform.plane_size();
    out_.gk_tau = Matrix::zero(plane, nl);
    ws.gk_planes.resize(static_cast<std::size_t>(nl * plane));
  }

  /// `slices(l)` yields {up, dn} of slice l, for begin <= l < end.
  template <class Slices>
  void segment(idx begin, idx end, const Slices& slices) {
    par::parallel_for(
        begin, end,
        [&](par::index_t l) {
          const auto [up, dn] = slices(l);
          measure_slice_local(ws_, l, up, dn, out_, stag_mt_, conn_);
          gather_slice_plane(ws_, l, up, dn);
        },
        kSliceOptions);
  }

  DynamicSample finish(double dtau) {
    // chi_AF(tau_l) = (m_stag(tau_l) m_stag(0) + connected) / N, with
    // m_stag(0) = sum_j eps_j m_j(0) from the l = 0 slice.
    const double stag_m0 = stag_mt_[0];
    for (idx l = 0; l < nl_; ++l) {
      out_.chi_af[l] =
          (stag_mt_[l] * stag_m0 + conn_[l]) / static_cast<double>(ws_.n);
    }
    // gk_tau's columns are the per-slice momentum rows (column-major,
    // ld == num momenta).
    const idx plane = ws_.transform.plane_size();
    ws_.transform.project_planes(ws_.gk_planes.data(), nl_, plane,
                                 out_.gk_tau.data(), plane);
    // Trapezoidal integral over tau in [0, beta].
    double integral = 0.5 * (out_.chi_af[0] + out_.chi_af[nl_ - 1]);
    for (idx l = 1; l < nl_ - 1; ++l) integral += out_.chi_af[l];
    out_.chi_af_integrated = integral * dtau;
    return std::move(out_);
  }

 private:
  MeasurementWorkspace& ws_;
  idx nl_;
  Vector stag_mt_, conn_;  ///< chi_AF's two parts per slice
  DynamicSample out_;
};

void check_workspace(const Lattice& lattice, const MeasurementWorkspace& ws) {
  DQMC_CHECK_MSG(ws.n == lattice.num_sites() && ws.lx == lattice.lx() &&
                     ws.ly == lattice.ly() && ws.layers == lattice.layers(),
                 "measurement workspace planned for a different lattice");
}

}  // namespace

DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              const TimeDisplaced& up, const TimeDisplaced& dn,
                              MeasurementWorkspace& ws) {
  const idx nl = static_cast<idx>(up.g_tau0.size());
  DQMC_CHECK(static_cast<idx>(dn.g_tau0.size()) == nl);
  DQMC_CHECK(nl >= 2);
  check_workspace(lattice, ws);
  DynamicMeasure measure(ws, nl);
  measure.segment(0, nl, [&](idx l) {
    return std::array{displaced_slice(up, l), displaced_slice(dn, l)};
  });
  return measure.finish(dtau);
}

DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              const TimeDisplaced& up,
                              const TimeDisplaced& dn) {
  MeasurementWorkspace ws(lattice);
  return measure_dynamic(lattice, dtau, up, dn, ws);
}

DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              DqmcEngine& engine, MeasurementWorkspace& ws) {
  const EngineConfig& c = engine.config();
  const TimeDisplacedGreens tdg(engine.factory(), engine.field(),
                                c.cluster_size, c.algorithm, c.qr_block);
  const idx nl = tdg.slices() + 1;
  DQMC_CHECK(nl >= 2);
  check_workspace(lattice, ws);
  DynamicMeasure measure(ws, nl);
  tdg.stream(engine.stored_stacks(), ws.displaced,
             [&](const DisplacedSegment& seg) {
               measure.segment(seg.begin, seg.end, [&](idx l) {
                 return std::array{seg.slice(Spin::Up, l),
                                   seg.slice(Spin::Down, l)};
               });
             });
  return measure.finish(dtau);
}

DynamicAccumulator::DynamicAccumulator(idx slices, idx bins)
    : gloc_(slices + 1, bins), chi_(slices + 1, bins), chi_int_(bins) {}

void DynamicAccumulator::add(const DynamicSample& sample, int sign) {
  const double s = static_cast<double>(sign);
  gloc_.add(sample.gloc.data(), s);
  chi_.add(sample.chi_af.data(), s);
  chi_int_.add(sample.chi_af_integrated, s);
}

}  // namespace dqmc::core
