// Dynamic (imaginary-time-displaced) measurements built on the
// time-displaced Green's functions — QUEST's "dynamic" observable class.
//
// For one configuration:
//   Gloc(tau_l)      = (1/N) tr G(l,0), spin-averaged — the local propagator
//                      whose large-beta decay encodes the spectral gap;
//   chi_AF(tau_l)    = (1/N) sum_{ij} eps_i eps_j <S_z,i(tau) S_z,j(0)>
//                      (staggered z-spin response, eps = (-1)^{x+y});
//   chi_AF integrated over tau = the antiferromagnetic susceptibility.
// Wick factorization per configuration:
//   <S_i(tau) S_j(0)> = m_i(tau) m_j(0)
//                       + sum_sigma (-G_s(0,l)_{ji}) (G_s(l,0)_{ij}),
// with m_i(tau) = n_up,i(tau) - n_dn,i(tau) from the equal-time G(l,l).
#pragma once

#include "dqmc/engine.h"
#include "dqmc/momentum_transform.h"
#include "dqmc/stats.h"
#include "dqmc/time_displaced.h"
#include "hubbard/lattice.h"

namespace dqmc::core {

using hubbard::Lattice;

/// Single-configuration dynamic observables (length L+1 arrays over tau).
struct DynamicSample {
  Vector gloc;    ///< spin-averaged (1/N) tr G(l,0)
  Vector chi_af;  ///< staggered spin response at displacement tau_l
  double chi_af_integrated = 0.0;  ///< trapezoidal integral over [0, beta]
  /// Momentum-resolved propagator G(k, tau_l), spin- and layer-averaged:
  /// rows indexed like Lattice::momenta(), columns l = 0..L. The tau decay
  /// of each row encodes the single-particle excitation energies.
  linalg::Matrix gk_tau;
};

/// Evaluate the dynamic observables from the two spins' stored displaced
/// Green's functions. `dtau` is needed for the tau integral. The workspace
/// (planned for the same lattice) batches all L+1 gk_tau slices through
/// its planned transform; the slices run in parallel (bitwise at any
/// thread count).
DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              const TimeDisplaced& up,
                              const TimeDisplaced& dn,
                              MeasurementWorkspace& ws);

/// The production path, on the engine's configuration after a sweep: walks
/// its chain one cluster segment at a time over the side the sweep stored
/// in its boundary stacks (DqmcEngine::stored_stacks, see
/// TimeDisplacedGreens::stream) and measures each segment's slices while
/// they are in cache, so only one segment is ever held; the segment
/// buffers live in ws.displaced and are reused by every later call. The
/// walk's cluster products and pushes bill to the caller's phase bracket.
/// Bitwise equal to measure_dynamic(lattice, dtau, tdg.compute(Up),
/// tdg.compute(Down), ws) for a TimeDisplacedGreens of the engine's field
/// and configuration.
DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              DqmcEngine& engine, MeasurementWorkspace& ws);

/// Convenience overload: plans a single-use workspace.
DynamicSample measure_dynamic(const Lattice& lattice, double dtau,
                              const TimeDisplaced& up,
                              const TimeDisplaced& dn);

/// Sign-weighted accumulator for DynamicSample streams.
class DynamicAccumulator {
 public:
  DynamicAccumulator(idx slices, idx bins = 16);

  void add(const DynamicSample& sample, int sign);
  idx samples() const { return chi_int_.samples(); }

  /// Fold another accumulator (same slice count and bins) into this one.
  void merge(const DynamicAccumulator& other) {
    gloc_.merge(other.gloc_);
    chi_.merge(other.chi_);
    chi_int_.merge(other.chi_int_);
  }

  /// Bit-exact text round trip (hexio format); load() requires a matching
  /// slice count and bin count.
  void save(std::ostream& out) const {
    gloc_.save(out);
    chi_.save(out);
    chi_int_.save(out);
  }
  void load(std::istream& in) {
    gloc_.load(in);
    chi_.load(in);
    chi_int_.load(in);
  }

  Estimate gloc(idx l) const { return gloc_.estimate(l); }
  Estimate chi_af(idx l) const { return chi_.estimate(l); }
  Estimate chi_af_integrated() const { return chi_int_.estimate(); }

 private:
  ArrayAccumulator gloc_, chi_;
  ScalarAccumulator chi_int_;
};

}  // namespace dqmc::core
