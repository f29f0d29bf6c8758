#include "dqmc/cluster_store.h"

#include <gtest/gtest.h>

#include "dqmc/rng.h"
#include "linalg/norms.h"
#include "testing/test_utils.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;
using linalg::Matrix;

struct ClusterFixture : ::testing::Test {
  ClusterFixture()
      : lat(4, 4), factory(lat, params()), field(12, 16) {
    Rng rng(571);
    field.randomize(rng);
  }
  static ModelParams params() {
    ModelParams p;
    p.u = 4.0;
    p.beta = 3.0;
    p.slices = 12;
    return p;
  }
  Lattice lat;
  hubbard::BMatrixFactory factory;
  HSField field;
};

TEST_F(ClusterFixture, GeometryWithEvenDivision) {
  ClusterStore store(factory, field, 4);
  EXPECT_EQ(store.num_clusters(), 3);
  EXPECT_EQ(store.cluster_begin(1), 4);
  EXPECT_EQ(store.cluster_end(1), 8);
  EXPECT_EQ(store.cluster_of(7), 1);
}

TEST_F(ClusterFixture, GeometryWithRaggedTail) {
  ClusterStore store(factory, field, 5);
  EXPECT_EQ(store.num_clusters(), 3);
  EXPECT_EQ(store.cluster_end(2), 12);  // last cluster has 2 slices
  EXPECT_EQ(store.cluster_begin(2), 10);
}

TEST_F(ClusterFixture, ClusterEqualsExplicitBProduct) {
  ClusterStore store(factory, field, 4);
  store.rebuild_all();
  for (idx c = 0; c < 3; ++c) {
    Matrix expected = factory.make_b(field.slice(store.cluster_begin(c)),
                                     hubbard::Spin::Up);
    for (idx l = store.cluster_begin(c) + 1; l < store.cluster_end(c); ++l) {
      expected = testing::reference_matmul(
          factory.make_b(field.slice(l), hubbard::Spin::Up), expected);
    }
    EXPECT_LE(linalg::relative_difference(store.cluster(hubbard::Spin::Up, c),
                                          expected),
              1e-12)
        << "cluster " << c;
  }
}

TEST_F(ClusterFixture, RotationOrdersClustersCyclically) {
  ClusterStore store(factory, field, 4);
  store.rebuild_all();
  auto rot = store.rotation(hubbard::Spin::Down, 1);
  ASSERT_EQ(rot.size(), 3u);
  EXPECT_EQ(rot[0], &store.cluster(hubbard::Spin::Down, 1));
  EXPECT_EQ(rot[1], &store.cluster(hubbard::Spin::Down, 2));
  EXPECT_EQ(rot[2], &store.cluster(hubbard::Spin::Down, 0));
}

TEST_F(ClusterFixture, RebuildPicksUpFieldChanges) {
  ClusterStore store(factory, field, 4);
  store.rebuild_all();
  Matrix before = store.cluster(hubbard::Spin::Up, 0);
  field.flip(1, 7);  // slice 1 lives in cluster 0
  store.rebuild(0);
  Matrix after = store.cluster(hubbard::Spin::Up, 0);
  EXPECT_GT(linalg::relative_difference(after, before), 1e-8);
  // Other clusters untouched by the rebuild of cluster 0.
  field.flip(1, 7);  // restore
}

TEST_F(ClusterFixture, BackendPathsMatchBitwise) {
  ClusterStore plain(factory, field, 4);
  plain.rebuild_all();

  for (backend::BackendKind kind :
       {backend::BackendKind::kHost, backend::BackendKind::kGpuSim}) {
    auto be = backend::make_backend(kind);
    backend::BackendBChain up(*be, factory.kinetic().factor());
    backend::BackendBChain dn(*be, factory.kinetic().factor());
    ClusterStore store(factory, field, 4);
    store.attach_backend(&up, &dn);
    EXPECT_TRUE(store.backend_attached());
    store.rebuild_all();

    for (idx c = 0; c < 3; ++c) {
      for (hubbard::Spin s : hubbard::kSpins) {
        // The backend chain runs the same kinetic-apply + row-scaling
        // sequence as the plain path, so the products are bitwise identical.
        EXPECT_EQ(linalg::relative_difference(store.cluster(s, c),
                                              plain.cluster(s, c)),
                  0.0)
            << backend::backend_kind_name(kind) << " cluster " << c;
      }
    }
  }
}

TEST_F(ClusterFixture, FormClusterProductIsTheStoredProduct) {
  // The walk's one-product former and the store agree bitwise, ragged last
  // cluster included (k = 5 over 12 slices).
  ClusterStore store(factory, field, 5);
  store.rebuild_all();
  Matrix out, work;
  for (hubbard::Spin s : hubbard::kSpins) {
    for (idx c = 0; c < store.num_clusters(); ++c) {
      form_cluster_product(factory, field, s, store.cluster_begin(c),
                           store.cluster_end(c), out, work);
      EXPECT_EQ(linalg::relative_difference(out, store.cluster(s, c)), 0.0);
    }
  }
}

TEST_F(ClusterFixture, ProfilerCreditsClusteringPhase) {
  ClusterStore store(factory, field, 4);
  Profiler prof;
  store.rebuild_all(&prof);
  EXPECT_GT(prof.seconds(Phase::kClustering), 0.0);
  EXPECT_EQ(prof.calls(Phase::kClustering), 3u);
}

TEST_F(ClusterFixture, UnbuiltRotationThrows) {
  ClusterStore store(factory, field, 4);
  EXPECT_THROW(store.rotation(hubbard::Spin::Up, 0), InvalidArgument);
}

}  // namespace
}  // namespace dqmc::core
