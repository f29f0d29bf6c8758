// BackendBChain: clustering and wrapping through the ComputeBackend seam.
// Ported from the retired gpusim chain tests, now parameterized over both
// backends, plus the resident-G upload-skip contract and the oracle that a
// one-item chain issues exactly its op sequence (same bits, same gpusim
// bill).
#include "backend/bchain.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "backend/gpusim_backend.h"
#include "hubbard/bmatrix.h"
#include "linalg/util.h"
#include "testing/test_utils.h"

namespace dqmc::backend {
namespace {

using hubbard::BMatrixFactory;
using hubbard::hs_t;
using hubbard::KineticKind;
using hubbard::Lattice;
using hubbard::ModelParams;
using hubbard::Spin;
using linalg::Matrix;
using linalg::MatrixRng;

ModelParams chain_params() {
  ModelParams p;
  p.u = 4.0;
  p.beta = 2.0;
  p.slices = 10;
  return p;
}

std::vector<hs_t> random_field(std::uint64_t seed, idx sites = 16) {
  MatrixRng rng(seed);
  std::vector<hs_t> h(static_cast<std::size_t>(sites));
  for (auto& x : h) x = rng.uniform() < 0.5 ? hs_t{-1} : hs_t{1};
  return h;
}

/// Algorithm 6 issued op by op on the simulated device (the backend seam
/// carries only the fused kernels): the two wrap GEMMs, then a row sweep
/// and a column sweep of cublasDscal calls, the latter with 1/v from the
/// host.
void rowwise_wrap(ConstMatrixView b, ConstMatrixView binv, Matrix& g,
                  const linalg::Vector& v) {
  const idx n = g.rows();
  gpu::Device dev;
  gpu::DeviceMatrix d_b = dev.alloc_matrix(n, n);
  gpu::DeviceMatrix d_binv = dev.alloc_matrix(n, n);
  gpu::DeviceMatrix d_g = dev.alloc_matrix(n, n);
  gpu::DeviceMatrix d_t = dev.alloc_matrix(n, n);
  gpu::DeviceVector d_v = dev.alloc_vector(n);
  gpu::DeviceVector d_vinv = dev.alloc_vector(n);
  dev.set_matrix(b, d_b);
  dev.set_matrix(binv, d_binv);
  linalg::Vector vinv(n);
  for (idx i = 0; i < n; ++i) vinv[i] = 1.0 / v[i];
  dev.set_matrix_async(g, d_g);
  dev.set_vector_async(v.data(), n, d_v);
  dev.gemm(Trans::No, Trans::No, 1.0, d_b, d_g, 0.0, d_t);
  dev.gemm(Trans::No, Trans::No, 1.0, d_t, d_binv, 0.0, d_g);
  dev.scale_rows_rowwise(d_v, d_g, d_g);
  dev.set_vector(vinv.data(), n, d_vinv);
  dev.scale_cols_rowwise(d_vinv, d_g, d_g);
  dev.get_matrix(d_g, g);
}

struct ChainFixture : ::testing::TestWithParam<BackendKind> {
  ChainFixture() : lat(4, 4), factory(lat, chain_params()) {}
  Lattice lat;
  BMatrixFactory factory;
};

INSTANTIATE_TEST_SUITE_P(AllBackends, ChainFixture,
                         ::testing::Values(BackendKind::kHost,
                                           BackendKind::kGpuSim),
                         [](const auto& pinfo) {
                           return std::string(backend_kind_name(pinfo.param));
                         });

TEST_P(ChainFixture, ClusterProductMatchesHostChain) {
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.b(), factory.b_inv());

  const int k = 5;
  std::vector<std::vector<hs_t>> fields;
  std::vector<std::vector<linalg::Vector>> vs(1);
  for (int l = 0; l < k; ++l) {
    fields.push_back(random_field(200 + l));
    vs[0].push_back(factory.v_diagonal(fields.back().data(), Spin::Up));
  }

  const std::vector<Matrix> result = chain.cluster_product(vs);
  ASSERT_EQ(result.size(), 1u);

  // Host reference: B_{k-1} ... B_0.
  Matrix host = factory.make_b(fields[0].data(), Spin::Up);
  for (int l = 1; l < k; ++l) {
    host = testing::reference_matmul(factory.make_b(fields[l].data(), Spin::Up),
                                     host);
  }
  EXPECT_MATRIX_NEAR(result[0], host, 1e-11);
}

TEST_P(ChainFixture, WrapMatchesHostWrap) {
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.kinetic().factor());
  auto h = random_field(400);
  MatrixRng rng(401);
  Matrix g = rng.uniform_matrix(16, 16);
  Matrix g_host = g;
  Matrix work(16, 16);
  factory.wrap(h.data(), Spin::Up, g_host, work);

  const linalg::Vector v = factory.v_diagonal(h.data(), Spin::Up);
  chain.wrap({g}, {&v}, {false});
  // Identical structured-apply + fused-scaling sequence: bitwise equal.
  EXPECT_MATRIX_NEAR(g, g_host, 0.0);
}

TEST_P(ChainFixture, ReverseWrapUndoesTheWrapLikeTheHost) {
  // The down sweep's composite G <- B_l^{-1} G B_l, with the inverse
  // diagonal, in both chain forms: it undoes the forward wrap to rounding,
  // reads the resident G like the forward one, and gives the host
  // backend's bits on every backend.
  auto h = random_field(410);
  const linalg::Vector v = factory.v_diagonal(h.data(), Spin::Up);
  const linalg::Vector vinv = factory.v_diagonal_inv(h.data(), Spin::Up);
  MatrixRng rng(411);
  const Matrix g0 = rng.uniform_matrix(16, 16);
  auto host = make_backend(BackendKind::kHost);
  auto be = make_backend(GetParam());
  for (const bool structured : {true, false}) {
    const auto make = [&](ComputeBackend& b) {
      return structured
                 ? std::make_unique<BackendBChain>(b, factory.kinetic().factor())
                 : std::make_unique<BackendBChain>(b, factory.b(),
                                                   factory.b_inv());
    };
    const auto round_trip = [&](BackendBChain& chain) {
      Matrix g = g0;
      chain.wrap({g}, {&v}, {false});
      chain.wrap({g}, {&vinv}, {true}, {}, /*reverse=*/true);
      return g;
    };
    std::unique_ptr<BackendBChain> chain = make(*be);
    std::unique_ptr<BackendBChain> ref = make(*host);
    const Matrix g = round_trip(*chain);
    SCOPED_TRACE(structured ? "structured" : "dense");
    EXPECT_EQ(chain->wrap_uploads_skipped(0), 1u);
    EXPECT_MATRIX_NEAR(g, g0, 1e-11);
    EXPECT_MATRIX_NEAR(g, round_trip(*ref), 0.0);
  }
}

TEST_P(ChainFixture, WrapVariantsAgree) {
  // The chain's fused Algorithm 7 wrap vs the row-by-row Algorithm 6
  // sequence issued on the simulated device: same arithmetic up to the 1/v
  // rounding of the column sweep.
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.b(), factory.b_inv());
  auto h = random_field(500);
  MatrixRng rng(501);
  Matrix g1 = rng.uniform_matrix(16, 16);
  Matrix g2 = g1;
  const linalg::Vector v = factory.v_diagonal(h.data(), Spin::Up);
  chain.wrap({g1}, {&v}, {false});
  rowwise_wrap(factory.b(), factory.b_inv(), g2, v);
  EXPECT_MATRIX_NEAR(g1, g2, 1e-12);
}

TEST_P(ChainFixture, ResidentGreensSkipsUpload) {
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.b(), factory.b_inv());
  auto h1 = random_field(700);
  auto h2 = random_field(701);
  MatrixRng rng(702);
  Matrix g = rng.uniform_matrix(16, 16);
  Matrix g_ref = g;

  const linalg::Vector v1 = factory.v_diagonal(h1.data(), Spin::Up);
  const linalg::Vector v2 = factory.v_diagonal(h2.data(), Spin::Up);

  chain.wrap({g}, {&v1}, {false});  // first wrap always uploads
  EXPECT_EQ(chain.wrap_uploads_skipped(0), 0u);
  // The host copy is untouched since the previous wrap downloaded it, so
  // the resident device copy may stand in for the upload...
  chain.wrap({g}, {&v2}, {true});
  EXPECT_EQ(chain.wrap_uploads_skipped(0), 1u);

  // ...and the result must be bitwise what uploading would have produced.
  BackendBChain fresh(*be, factory.b(), factory.b_inv());
  fresh.wrap({g_ref}, {&v1}, {false});
  fresh.wrap({g_ref}, {&v2}, {false});
  EXPECT_EQ(fresh.wrap_uploads_skipped(0), 0u);
  EXPECT_MATRIX_NEAR(g, g_ref, 0.0);
}

TEST_P(ChainFixture, EmptyClusterThrows) {
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.b(), factory.b_inv());
  const std::vector<std::vector<linalg::Vector>> no_factors(1);
  EXPECT_THROW(chain.cluster_product(no_factors), InvalidArgument);
}

TEST_P(ChainFixture, ItemCountMismatchThrows) {
  auto be = make_backend(GetParam());
  BackendBChain chain(*be, factory.b(), factory.b_inv());
  MatrixRng rng(710);
  Matrix g1 = rng.uniform_matrix(16, 16), g2 = g1;
  const linalg::Vector v = factory.v_diagonal(random_field(711).data(),
                                              Spin::Up);
  EXPECT_THROW(chain.wrap({g1, g2}, {&v, &v}, {false, false}),
               InvalidArgument);
  EXPECT_THROW(chain.cluster_product({{v}, {v}}), InvalidArgument);
}

// ---- A one-item chain is its op sequence -----------------------------------
// The single-item chain composites, written out op by op as one-item
// batches: the reference a one-item BackendBChain must reproduce bit for
// bit and bill identically on the gpusim cost model.
class SingleOpChain {
 public:
  SingleOpChain(ComputeBackend& be, const BMatrixFactory& f)
      : be_(be), n_(f.n()) {
    if (f.kinetic().structured()) {
      kinetic_ = be_.alloc_kinetic(f.kinetic().cb());
      ident_ = be_.alloc_matrix(n_, n_);
      be_.upload(Matrix::identity(n_), *ident_);
    } else {
      b_ = be_.alloc_matrix(n_, n_);
      binv_ = be_.alloc_matrix(n_, n_);
      t_ = be_.alloc_matrix(n_, n_);
      be_.upload(f.b(), *b_);
      be_.upload(f.b_inv(), *binv_);
    }
    a_ = be_.alloc_matrix(n_, n_);
    g_ = be_.alloc_matrix(n_, n_);
    v_ = be_.alloc_vector(n_);
  }

  Matrix cluster_product(const std::vector<linalg::Vector>& vs) {
    if (kinetic_) {
      be_.copy(*ident_, *a_);
      for (const linalg::Vector& v : vs) {
        be_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kLeft, false,
                                  {a_.get()});
        be_.upload_vectors_async({v.data()}, n_, {v_.get()});
        be_.scale_rows_batched({v_.get()}, {a_.get()}, {a_.get()});
      }
    } else {
      be_.upload_vectors_async({vs[0].data()}, n_, {v_.get()});
      be_.scale_rows_batched({v_.get()}, {b_.get()}, {a_.get()});
      for (std::size_t l = 1; l < vs.size(); ++l) {
        be_.gemm_batched(Trans::No, Trans::No, 1.0, {b_.get()}, {a_.get()},
                         0.0, {t_.get()});
        be_.upload_vectors_async({vs[l].data()}, n_, {v_.get()});
        be_.scale_rows_batched({v_.get()}, {t_.get()}, {a_.get()});
      }
    }
    Matrix out(n_, n_);
    be_.download(*a_, out);
    return out;
  }

  void wrap(Matrix& g, const linalg::Vector& v, bool host_unchanged) {
    if (!(host_unchanged && resident_)) {
      be_.upload_batched_async({g}, {g_.get()});
    }
    be_.upload_vectors_async({v.data()}, n_, {v_.get()});
    if (kinetic_) {
      be_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kLeft, false,
                                {g_.get()});
      be_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kRight, true,
                                {g_.get()});
    } else {
      be_.gemm_batched(Trans::No, Trans::No, 1.0, {b_.get()}, {g_.get()}, 0.0,
                       {t_.get()});
      be_.gemm_batched(Trans::No, Trans::No, 1.0, {t_.get()}, {binv_.get()},
                       0.0, {g_.get()});
    }
    be_.wrap_scale_batched({v_.get()}, {g_.get()});
    be_.download(*g_, g);
    resident_ = true;
  }

 private:
  ComputeBackend& be_;
  idx n_;
  std::unique_ptr<MatrixHandle> b_, binv_, t_, ident_, a_, g_;
  std::unique_ptr<KineticHandle> kinetic_;
  std::unique_ptr<VectorHandle> v_;
  bool resident_ = false;
};

using OracleParam = std::tuple<BackendKind, KineticKind>;

// 6x6: at n = 36 the gpusim GEMM ramp is sensitive to how the volume is
// rounded, so a bill computed along a different path would show here.
struct OneItemChainFixture : ::testing::TestWithParam<OracleParam> {
  OneItemChainFixture()
      : lat(6, 6), factory(lat, chain_params(), std::get<1>(GetParam())) {}
  BackendBChain make_chain(ComputeBackend& be) const {
    if (factory.kinetic().structured()) {
      return BackendBChain(be, factory.kinetic().cb());
    }
    return BackendBChain(be, factory.b(), factory.b_inv());
  }
  Lattice lat;
  BMatrixFactory factory;
};

INSTANTIATE_TEST_SUITE_P(
    AllBackendsBothKinetics, OneItemChainFixture,
    ::testing::Combine(::testing::Values(BackendKind::kHost,
                                         BackendKind::kGpuSim),
                       ::testing::Values(KineticKind::kDense,
                                         KineticKind::kCheckerboard)),
    [](const auto& pinfo) {
      return std::string(backend_kind_name(std::get<0>(pinfo.param))) + "_" +
             hubbard::kinetic_kind_name(std::get<1>(pinfo.param));
    });

TEST_P(OneItemChainFixture, MatchesSingleOpSequenceBitsAndBill) {
  const BackendKind kind = std::get<0>(GetParam());
  auto be_chain = make_backend(kind);
  auto be_ref = make_backend(kind);
  BackendBChain chain = make_chain(*be_chain);
  SingleOpChain ref(*be_ref, factory);

  // Host stats are measured wall time; only the gpusim bill is exact.
  const auto expect_same_bill = [&](const std::string& step) {
    if (kind != BackendKind::kGpuSim) return;
    const BackendStats a = be_chain->stats(), b = be_ref->stats();
    EXPECT_EQ(a.compute_seconds, b.compute_seconds) << step;
    EXPECT_EQ(a.transfer_seconds, b.transfer_seconds) << step;
    EXPECT_EQ(a.kernel_launches, b.kernel_launches) << step;
    EXPECT_EQ(a.transfers, b.transfers) << step;
    EXPECT_EQ(a.bytes_h2d, b.bytes_h2d) << step;
    EXPECT_EQ(a.bytes_d2h, b.bytes_d2h) << step;
  };
  expect_same_bill("construction");

  const idx n = factory.n();
  MatrixRng rng(800);
  Matrix g = rng.uniform_matrix(n, n);
  Matrix g_ref = g;
  std::vector<linalg::Vector> vs;
  for (int l = 0; l < 5; ++l) {
    vs.push_back(
        factory.v_diagonal(random_field(810 + l, n).data(), Spin::Up));
  }

  // First wrap uploads; the second finds G resident; the third follows a
  // host-side change, so it must upload again.
  const bool unchanged[] = {false, true, false};
  for (int pass = 0; pass < 3; ++pass) {
    const std::string step = "wrap " + std::to_string(pass);
    if (pass == 2) {
      g(0, 0) += 0.5;
      g_ref(0, 0) += 0.5;
    }
    SCOPED_TRACE(step);
    const linalg::Vector& v = vs[static_cast<std::size_t>(pass)];
    chain.wrap({g}, {&v}, {unchanged[pass]});
    ref.wrap(g_ref, v, unchanged[pass]);
    EXPECT_MATRIX_NEAR(g, g_ref, 0.0);
    expect_same_bill(step);
  }
  EXPECT_EQ(chain.wrap_uploads_skipped(0), 1u);

  for (std::size_t k : {std::size_t{1}, vs.size()}) {
    const std::string step = "cluster k=" + std::to_string(k);
    SCOPED_TRACE(step);
    const std::vector<linalg::Vector> factors(vs.begin(), vs.begin() + k);
    const std::vector<Matrix> out = chain.cluster_product({factors});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_MATRIX_NEAR(out[0], ref.cluster_product(factors), 0.0);
    expect_same_bill(step);
  }
}

TEST(ChainAccounting, ClusteringAmortizesTransfersBetterThanWrapping) {
  // The Fig. 9 story: per flop, clustering moves far less PCIe data than
  // wrapping. Compare modeled transfer seconds per modeled compute second.
  Lattice lat(4, 4);
  BMatrixFactory factory(lat, chain_params());
  GpuSimBackend gpusim;
  BackendBChain chain(gpusim, factory.b(), factory.b_inv());

  MatrixRng rng(600);
  std::vector<std::vector<linalg::Vector>> vs(1);
  for (int l = 0; l < 10; ++l) {
    linalg::Vector v(16);
    for (idx i = 0; i < 16; ++i) v[i] = rng.uniform(0.7, 1.4);
    vs[0].push_back(std::move(v));
  }
  gpusim.reset_stats();
  (void)chain.cluster_product(vs);
  gpusim.synchronize();
  const BackendStats cluster = gpusim.stats();

  Matrix g = rng.uniform_matrix(16, 16);
  gpusim.reset_stats();
  chain.wrap({g}, {&vs[0][0]}, {false});
  gpusim.synchronize();
  const BackendStats wrap = gpusim.stats();

  const double cluster_ratio =
      cluster.transfer_seconds / cluster.compute_seconds;
  const double wrap_ratio = wrap.transfer_seconds / wrap.compute_seconds;
  EXPECT_LT(cluster_ratio, wrap_ratio);
}

TEST(ChainFlops, FlopCountsArePositiveAndOrdered) {
  const double gemm = 2.0 * 256.0 * 256.0 * 256.0;
  EXPECT_GT(cluster_product_flops(256, 10, gemm), wrap_flops(256, gemm));
  EXPECT_GT(wrap_flops(256, gemm), 0.0);
  // The kinetic applies are billed at the caller's cost, plus the scalings.
  EXPECT_DOUBLE_EQ(cluster_product_flops(256, 10, 1.0),
                   9.0 + 10.0 * 256.0 * 256.0);
  EXPECT_DOUBLE_EQ(wrap_flops(256, 1.0), 2.0 + 2.0 * 256.0 * 256.0);
}

}  // namespace
}  // namespace dqmc::backend
