// The streamed dynamic measurement (TimeDisplacedGreens::stream feeding
// measure_dynamic segment by segment over the side a sweep stored in the
// engine's boundary stacks: suffixes after a down sweep, prefixes after an
// up one) against the materialized one (compute(Up), compute(Down) over
// private stacks, then measure_dynamic on the stored slices): bitwise equal
// across lattice shapes (an odd, non-square one included, so the FFT runs
// on mixed extents), kinetic modes, backends, thread budgets, both sweep
// directions, a short last segment and walker crowds, G(k, tau) within
// 1e-10 of the O(N^2) oracle — and both equal to a hand-built accumulation
// at a non-default QR panel width. Pushing the sweep's pending product
// early for the walk leaves the trajectory unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>

#include "dqmc/checkpoint.h"
#include "dqmc/cluster_store.h"
#include "dqmc/dynamic_measurements.h"
#include "dqmc/engine.h"
#include "dqmc/stabilizer.h"
#include "dqmc/walker_batch.h"
#include "linalg/util.h"
#include "parallel/topology.h"
#include "testing/measure_reference.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;
using hubbard::Spin;

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) { par::set_num_threads(threads); }
  ~ThreadCountGuard() { par::set_num_threads(0); }
};

ModelParams model(idx slices) {
  ModelParams p;
  p.u = 4.0;
  p.beta = 2.0;
  p.slices = slices;
  return p;
}

void expect_bitwise(const DynamicSample& a, const DynamicSample& b) {
  ASSERT_EQ(a.gloc.size(), b.gloc.size());
  for (idx l = 0; l < a.gloc.size(); ++l) {
    ASSERT_EQ(a.gloc[l], b.gloc[l]) << "gloc l=" << l;
    ASSERT_EQ(a.chi_af[l], b.chi_af[l]) << "chi_af l=" << l;
  }
  ASSERT_EQ(a.chi_af_integrated, b.chi_af_integrated);
  ASSERT_EQ(a.gk_tau.rows(), b.gk_tau.rows());
  ASSERT_EQ(a.gk_tau.cols(), b.gk_tau.cols());
  for (idx j = 0; j < a.gk_tau.cols(); ++j) {
    for (idx i = 0; i < a.gk_tau.rows(); ++i) {
      ASSERT_EQ(a.gk_tau(i, j), b.gk_tau(i, j)) << "gk_tau (" << i << ", "
                                                << j << ")";
    }
  }
}

TimeDisplacedGreens displaced_of(DqmcEngine& e) {
  const EngineConfig& c = e.config();
  return TimeDisplacedGreens(e.factory(), e.field(), c.cluster_size,
                             c.algorithm, c.qr_block);
}

/// Streamed sample over the engine's stacks, checked bitwise against the
/// materialized path on a fresh workspace and its G(k, tau) against the
/// oracle. Streams twice through `ws` so reused segment buffers are
/// covered too.
void expect_stream_matches(DqmcEngine& e, MeasurementWorkspace& ws) {
  const Lattice& lat = e.lattice();
  const double dtau = e.params().dtau();
  const TimeDisplacedGreens tdg = displaced_of(e);
  const DynamicSample streamed = measure_dynamic(lat, dtau, e, ws);
  MeasurementWorkspace ref_ws(lat);
  const TimeDisplaced up = tdg.compute(Spin::Up);
  const TimeDisplaced dn = tdg.compute(Spin::Down);
  const DynamicSample materialized = measure_dynamic(lat, dtau, up, dn, ref_ws);
  expect_bitwise(streamed, materialized);
  expect_bitwise(measure_dynamic(lat, dtau, e, ws), materialized);

  const DynamicSample oracle =
      testing::MeasureReference(lat).dynamic(up, dn, materialized);
  for (idx j = 0; j < oracle.gk_tau.cols(); ++j) {
    for (idx i = 0; i < oracle.gk_tau.rows(); ++i) {
      ASSERT_NEAR(materialized.gk_tau(i, j), oracle.gk_tau(i, j), 1e-10)
          << "gk_tau (" << i << ", " << j << ")";
    }
  }
}

using StreamParam = std::tuple<std::pair<idx, idx>, hubbard::KineticKind,
                               backend::BackendKind, int>;

class DynamicStream : public ::testing::TestWithParam<StreamParam> {};

TEST_P(DynamicStream, MatchesMaterializedBitwise) {
  const auto [extents, kinetic, backend, threads] = GetParam();
  ThreadCountGuard guard(threads);
  EngineConfig cfg;
  cfg.cluster_size = 4;
  cfg.kinetic = kinetic;
  cfg.backend = backend;
  DqmcEngine e(Lattice(extents.first, extents.second), model(14), cfg, 41);
  e.initialize();
  MeasurementWorkspace ws(e.lattice());
  for (int sweep = 0; sweep < 2; ++sweep) {
    e.sweep();
    expect_stream_matches(e, ws);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LatticesKineticBackendsThreads, DynamicStream,
    ::testing::Combine(
        ::testing::Values(std::pair<idx, idx>{4, 4}, std::pair<idx, idx>{3, 5}),
        ::testing::Values(hubbard::KineticKind::kDense,
                          hubbard::KineticKind::kCheckerboard),
        ::testing::Values(backend::BackendKind::kHost,
                          backend::BackendKind::kGpuSim),
        ::testing::Values(1, 2, 4)));

TEST(DynamicStreamEdges, ShortLastSegmentMatchesMaterialized) {
  // L = 23, k = 5: four full segments, a 3-slice one, then l = L.
  EngineConfig cfg;
  cfg.cluster_size = 5;
  DqmcEngine e(Lattice(4, 4), model(23), cfg, 42);
  e.initialize();
  e.sweep();
  MeasurementWorkspace ws(e.lattice());
  expect_stream_matches(e, ws);
}

TEST(DynamicStreamEdges, PushingThePendingProductLeavesTheTrajectory) {
  // A sweep leaves its last cluster's product to the next boundary; the
  // walk pushes it first. Measured after every sweep or never, a chain
  // runs the same trajectory, and bills the same clustering calls.
  ThreadCountGuard guard(4);
  EngineConfig cfg;
  cfg.cluster_size = 4;
  cfg.kinetic = hubbard::KineticKind::kCheckerboard;
  DqmcEngine measured(Lattice(4, 4), model(16), cfg, 43);
  DqmcEngine plain(Lattice(4, 4), model(16), cfg, 43);
  measured.initialize();
  plain.initialize();
  MeasurementWorkspace ws(measured.lattice());
  for (int sweep = 0; sweep < 3; ++sweep) {
    measured.sweep();
    plain.sweep();
    (void)measure_dynamic(measured.lattice(), measured.params().dtau(),
                          measured, ws);
  }
  measured.sweep();
  plain.sweep();
  EXPECT_EQ(trajectory_hash(measured), trajectory_hash(plain));
  EXPECT_EQ(measured.profiler().calls(Phase::kClustering),
            plain.profiler().calls(Phase::kClustering));
}

TEST(DynamicStreamEdges, ReadsEveryWalkerStoreAfterALockstepSweep) {
  for (const backend::BackendKind backend :
       {backend::BackendKind::kHost, backend::BackendKind::kGpuSim}) {
    EngineConfig cfg;
    cfg.cluster_size = 4;
    cfg.backend = backend;
    cfg.kinetic = hubbard::KineticKind::kCheckerboard;
    WalkerBatch batch(Lattice(4, 4), model(12), cfg, {7, 8, 9});
    batch.initialize_all();
    batch.sweep_all();
    for (idx w = 0; w < batch.walkers(); ++w) {
      MeasurementWorkspace ws(batch.engine(w).lattice());
      expect_stream_matches(batch.engine(w), ws);
    }
  }
}

/// The materialized algorithm spelled out on the public pieces, with
/// `qr_block` as the stabilizers' panel width: suffix snapshots through the
/// transposed chain, one exact closure per boundary, single-slice
/// propagation in between.
TimeDisplaced hand_built(const BMatrixFactory& factory, const HSField& field,
                         idx k, idx qr_block, Spin s) {
  ClusterStore store(factory, field, k);
  store.rebuild_all();
  const idx n = factory.n();
  const idx L = field.slices();
  const idx nc = store.num_clusters();
  std::vector<UDT> suffixes(static_cast<std::size_t>(nc));
  {
    const auto acc = make_stabilizer(n, StratAlgorithm::kPrePivot, qr_block);
    for (idx c = nc - 1; c >= 0; --c) {
      acc->push(linalg::transpose(store.cluster(s, c)));
      suffixes[static_cast<std::size_t>(c)] = acc->snapshot();
    }
  }
  TimeDisplaced out;
  const auto count = static_cast<std::size_t>(L) + 1;
  out.g_tau0.resize(count);
  out.g_0tau.resize(count);
  out.g_tautau.resize(count);
  const auto acc = make_stabilizer(n, StratAlgorithm::kPrePivot, qr_block);
  UDT prefix;
  for (idx c = 0; c <= nc; ++c) {
    if (c > 0) {
      acc->push(store.cluster(s, c - 1));
      prefix = acc->snapshot();
    }
    DisplacedBoundary g = displaced_greens(
        c == 0 ? nullptr : &prefix,
        c == nc ? nullptr : &suffixes[static_cast<std::size_t>(c)]);
    const auto b = static_cast<std::size_t>(c == nc ? L : store.cluster_begin(c));
    out.g_tau0[b] = std::move(g.g_tau0);
    out.g_0tau[b] = std::move(g.g_0tau);
    out.g_tautau[b] = std::move(g.g_tautau);
  }
  Matrix work(n, n);
  for (idx l = 1; l <= L; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    if (!out.g_tau0[lu].empty()) continue;
    const hubbard::hs_t* h = field.slice(l - 1);
    out.g_tau0[lu].resize(n, n);
    factory.apply_b_left(h, s, out.g_tau0[lu - 1], out.g_tau0[lu]);
    out.g_0tau[lu].resize(n, n);
    factory.apply_b_inv_right(h, s, out.g_0tau[lu - 1], out.g_0tau[lu]);
    out.g_tautau[lu] = out.g_tautau[lu - 1];
    factory.wrap(h, s, out.g_tautau[lu], work);
  }
  return out;
}

TEST(DynamicStreamEdges, HonorsTheConfiguredQrBlock) {
  // A 36-site lattice, so the default panel (32) and 8 factor differently.
  EngineConfig cfg;
  cfg.cluster_size = 5;
  cfg.qr_block = 8;
  DqmcEngine e(Lattice(6, 6), model(12), cfg, 44);
  e.initialize();
  e.sweep();
  const Lattice& lat = e.lattice();
  const double dtau = e.params().dtau();
  MeasurementWorkspace ws(lat);
  const DynamicSample streamed = measure_dynamic(lat, dtau, e, ws);
  const DynamicSample reference = measure_dynamic(
      lat, dtau, hand_built(e.factory(), e.field(), 5, 8, Spin::Up),
      hand_built(e.factory(), e.field(), 5, 8, Spin::Down), ws);
  expect_bitwise(streamed, reference);

  // The default panel width gives different bits, so the check above
  // would catch a walk that ignored qr_block.
  const DynamicSample default_block = measure_dynamic(
      lat, dtau,
      hand_built(e.factory(), e.field(), 5, linalg::kQrBlock, Spin::Up),
      hand_built(e.factory(), e.field(), 5, linalg::kQrBlock, Spin::Down), ws);
  EXPECT_NE(streamed.chi_af_integrated, default_block.chi_af_integrated);
}

}  // namespace
}  // namespace dqmc::core
