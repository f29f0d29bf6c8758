// Boundary stack of the up/down sweep: every boundary the engine closes
// agrees with the full-rotation stratification in both directions, a
// carried stack is bitwise a rebuilt one at every boundary of both halves,
// and the graded-push count per sweep is pinned.
#include "dqmc/boundary_stack.h"

#include <gtest/gtest.h>

#include <tuple>

#include "dqmc/cluster_store.h"
#include "dqmc/engine.h"
#include "dqmc/rng.h"
#include "dqmc/simulation.h"
#include "dqmc/stratification.h"
#include "parallel/topology.h"
#include "testing/test_utils.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;
using hubbard::Spin;
using linalg::Matrix;

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) { par::set_num_threads(threads); }
  ~ThreadCountGuard() { par::set_num_threads(0); }
};

ModelParams model(idx slices) {
  ModelParams p;
  p.u = 4.0;
  p.slices = slices;
  p.beta = 0.125 * static_cast<double>(slices);
  return p;
}

EngineConfig config(idx k, StratAlgorithm algorithm) {
  EngineConfig c;
  c.cluster_size = k;
  c.delay_rank = 4;
  c.algorithm = algorithm;
  return c;
}

class StackAgreement
    : public ::testing::TestWithParam<std::tuple<idx, StratAlgorithm>> {};

TEST_P(StackAgreement, EveryBoundaryMatchesTheFullRotation) {
  const auto [m, algorithm] = GetParam();
  ThreadCountGuard guard(2);
  // k = 3 with L = 3m - 1: the last cluster is ragged (two slices) for
  // m >= 2; m = 1 is one cluster of two slices.
  const idx k = 3;
  const idx slices = m == 1 ? 2 : 3 * m - 1;
  DqmcEngine e(Lattice(4, 4), model(slices), config(k, algorithm), 17 + m);
  e.initialize();
  ASSERT_EQ(e.num_clusters(), m);
  StratificationEngine reference(e.n(), algorithm);
  // Before an up sweep the stacks hold suffixes, before a down sweep
  // prefixes: the boundaries are reached from either side.
  for (int sweep = 0; sweep < 2; ++sweep) {
    ClusterStore store(e.factory(), e.field(), k);
    store.rebuild_all();
    for (idx c = 0; c < m; ++c) {
      e.recompute_greens(c);
      SCOPED_TRACE(::testing::Message()
                   << "m " << m << " boundary " << c << " before a "
                   << sweep_direction_name(e.direction()) << " sweep");
      for (Spin s : hubbard::kSpins) {
        EXPECT_MATRIX_NEAR(e.greens(s), reference.compute(store.rotation(s, c)),
                           1e-10);
      }
    }
    e.sweep();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Clusters, StackAgreement,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 16),
                       ::testing::Values(StratAlgorithm::kPrePivot,
                                         StratAlgorithm::kQRP,
                                         StratAlgorithm::kSvdStack)));

void expect_same_factors(const ChainFactors& a, const ChainFactors& b) {
  ASSERT_EQ(a.identity(), b.identity());
  if (a.identity()) return;
  EXPECT_MATRIX_NEAR(*a.u, *b.u, 0.0);
  EXPECT_MATRIX_NEAR(*a.t, *b.t, 0.0);
  for (idx i = 0; i < a.d->size(); ++i) ASSERT_EQ((*a.d)[i], (*b.d)[i]);
}

/// A spin-up chain of m clusters whose products a test can change one
/// cluster at a time, as a sweep changes them.
struct Chain {
  Chain(idx m, idx cluster_size)
      : k(cluster_size),
        factory(Lattice(4, 4), model(m * cluster_size)),
        field(m * cluster_size, 16),
        store(factory, field, cluster_size) {
    Rng rng(5);
    field.randomize(rng);
    store.rebuild_all();
  }
  const Matrix& product(idx c) const { return store.cluster(Spin::Up, c); }
  /// Resample cluster c (a few flips) and re-form its product.
  void touch(idx c) {
    for (idx l = c * k; l < (c + 1) * k; ++l) field.flip(l, (l * 7 + c) % 16);
    store.rebuild(c);
  }
  /// A stack rebuilt from scratch for a half in direction d.
  std::unique_ptr<BoundaryStack> rebuilt(SweepDirection d) const {
    const idx m = store.num_clusters();
    auto stack = std::make_unique<BoundaryStack>(16, m,
                                                 StratAlgorithm::kPrePivot);
    stack->start(opposite(d));
    for (idx i = 0; i < m; ++i) stack->push(product(stack->next_cluster()));
    return stack;
  }

  idx k;
  hubbard::BMatrixFactory factory;
  HSField field;
  ClusterStore store;
};

TEST(BoundaryStack, CarriedStackIsBitwiseARebuiltOneInBothHalves) {
  const idx m = 6;
  Chain chain(m, 3);
  std::unique_ptr<BoundaryStack> carried = chain.rebuilt(SweepDirection::kUp);
  for (const SweepDirection dir :
       {SweepDirection::kUp, SweepDirection::kDown, SweepDirection::kUp}) {
    ASSERT_TRUE(carried->complete());
    ASSERT_EQ(carried->direction(), dir);
    // What the half finds stored is what a rebuild stores.
    const std::unique_ptr<BoundaryStack> fresh = chain.rebuilt(dir);
    for (idx b = 0; b <= m; ++b) {
      SCOPED_TRACE(::testing::Message() << "stored boundary " << b);
      expect_same_factors(carried->stored(b), fresh->stored(b));
    }
    for (idx i = 0; i < m; ++i) {
      // At every boundary of the half the carried stack closes bitwise
      // what a walk over a stack rebuilt from the current products does.
      const std::unique_ptr<BoundaryStack> ref = chain.rebuilt(dir);
      StackWalk walk(*ref, StratAlgorithm::kPrePivot);
      while (walk.boundary() != carried->boundary()) {
        walk.advance(chain.product(walk.next_cluster()));
      }
      Matrix g, want(16, 16);
      carried->close(g);
      walk.close(want, linalg::MatrixView(), linalg::MatrixView());
      SCOPED_TRACE(::testing::Message()
                   << sweep_direction_name(dir) << " boundary "
                   << carried->boundary());
      EXPECT_MATRIX_NEAR(g, want, 0.0);
      // The sweep resamples the cluster it crosses before pushing it.
      const idx c = carried->next_cluster();
      chain.touch(c);
      carried->push(chain.product(c));
    }
  }
}

TEST(BoundaryStack, OneClusterTurnsAtEveryPush) {
  Chain chain(1, 4);
  BoundaryStack stack(16, 1, StratAlgorithm::kPrePivot);
  stack.start(SweepDirection::kDown);
  EXPECT_FALSE(stack.complete());
  stack.push(chain.product(0));
  EXPECT_TRUE(stack.complete());
  EXPECT_EQ(stack.direction(), SweepDirection::kUp);
  EXPECT_EQ(stack.boundary(), 0);
  Matrix up;
  stack.close(up);
  stack.push(chain.product(0));
  EXPECT_EQ(stack.direction(), SweepDirection::kDown);
  EXPECT_EQ(stack.boundary(), 1);
  Matrix down;
  stack.close(down);
  // tau = 0 and tau = beta: the same G from either side, to rounding.
  EXPECT_MATRIX_NEAR(up, down, 1e-12);
}

/// Graded pushes of one sweep (both spins), after `warm` sweeps.
std::uint64_t pushes_per_sweep(idx slices, idx k, idx warm) {
  DqmcEngine e(Lattice(4, 4), model(slices),
               config(k, StratAlgorithm::kPrePivot), 71);
  e.initialize();
  for (idx i = 0; i < warm; ++i) e.sweep();
  const StratStats before = e.strat_stats();
  e.sweep();
  const StratStats after = e.strat_stats();
  EXPECT_EQ(after.evaluations - before.evaluations,
            2u * static_cast<std::uint64_t>(e.num_clusters()));
  return after.steps - before.steps;
}

TEST(BoundaryStack, QrStepsPerSweepArePinned) {
  ThreadCountGuard guard(2);
  // One push per spin and cluster, down (odd warm-up) or up (even): 2m for
  // both spins, against 54 at m = 8 for a stack that re-pushed its suffix
  // from sqrt(m)-spaced snapshots and 128 for a full-rotation scheme.
  for (const idx warm : {1, 2}) {
    EXPECT_EQ(pushes_per_sweep(80, 10, warm), 16u);
    EXPECT_EQ(pushes_per_sweep(160, 10, warm), 32u);
    EXPECT_EQ(pushes_per_sweep(40, 10, warm), 8u);
    EXPECT_EQ(pushes_per_sweep(30, 10, warm), 6u);
  }
}

TEST(BoundaryStack, QrStepsOfARunArePinned) {
  // The dqmc_run shape --beta 10 --slices 80 --warmup 1 --sweeps 3 (m = 8;
  // the count does not depend on the lattice): 2m pushes to build the
  // stacks, 2(m - 1) in the first sweep, whose first boundary has no
  // product to push, and 2m in each later one. The last sweep's last
  // product stays pending, as no boundary follows it.
  SimulationConfig cfg;
  cfg.lx = cfg.ly = 4;
  cfg.model = model(80);
  cfg.engine.cluster_size = 10;
  cfg.warmup_sweeps = 1;
  cfg.measurement_sweeps = 3;
  const SimulationResults res = run_simulation(cfg);
  EXPECT_EQ(res.strat_stats.steps, 16u + 14u + 3u * 16u);
}

}  // namespace
}  // namespace dqmc::core
