// Direct unit tests of the GEMM packing routines and micro-kernel.
#include "linalg/gemm_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/aligned.h"
#include "linalg/blas3.h"
#include "linalg/util.h"
#include "testing/test_utils.h"

namespace dqmc::linalg::detail {
namespace {

TEST(GemmKernel, PackAMirrorsColumnStrips) {
  MatrixRng rng(601);
  Matrix a = rng.uniform_matrix(10, 5);
  const idx mc = 10, kc = 5;
  std::vector<double> buf(static_cast<std::size_t>(round_up(mc, kMR)) * kc,
                          -99.0);
  pack_a(a, /*trans=*/false, 0, 0, mc, kc, buf.data());
  // Element (i, p) lives at strip(i/kMR)*kc*kMR + p*kMR + i%kMR.
  for (idx p = 0; p < kc; ++p) {
    for (idx i = 0; i < mc; ++i) {
      const idx strip = i / kMR;
      const double got =
          buf[static_cast<std::size_t>(strip * kc * kMR + p * kMR + i % kMR)];
      EXPECT_EQ(got, a(i, p)) << i << "," << p;
    }
  }
  // Zero padding to the strip height.
  for (idx p = 0; p < kc; ++p) {
    for (idx i = mc; i < round_up(mc, kMR); ++i) {
      const idx strip = i / kMR;
      EXPECT_EQ(buf[static_cast<std::size_t>(strip * kc * kMR + p * kMR + i % kMR)], 0.0);
    }
  }
}

TEST(GemmKernel, PackATransposed) {
  MatrixRng rng(603);
  Matrix a = rng.uniform_matrix(6, 9);  // packing a^T block: 9 rows, 6 cols
  std::vector<double> buf(static_cast<std::size_t>(round_up(9, kMR)) * 6);
  pack_a(a, /*trans=*/true, 0, 0, /*mc=*/9, /*kc=*/6, buf.data());
  for (idx p = 0; p < 6; ++p)
    for (idx i = 0; i < 9; ++i) {
      const idx strip = i / kMR;
      EXPECT_EQ(buf[static_cast<std::size_t>(strip * 6 * kMR + p * kMR + i % kMR)],
                a(p, i));
    }
}

TEST(GemmKernel, PackBMirrorsRowStrips) {
  MatrixRng rng(605);
  Matrix b = rng.uniform_matrix(4, 13);
  const idx kc = 4, nc = 13;
  std::vector<double> buf(static_cast<std::size_t>(kc) * round_up(nc, kNR),
                          -99.0);
  pack_b(b, false, 0, 0, kc, nc, buf.data());
  for (idx p = 0; p < kc; ++p) {
    for (idx j = 0; j < nc; ++j) {
      const idx strip = j / kNR;
      const double got =
          buf[static_cast<std::size_t>(strip * kc * kNR + p * kNR + j % kNR)];
      EXPECT_EQ(got, b(p, j)) << p << "," << j;
    }
  }
}

TEST(GemmKernel, MicroKernelFullTileMatchesNaive) {
  MatrixRng rng(607);
  const idx kc = 23;
  Matrix a = rng.uniform_matrix(kMR, kc);
  Matrix b = rng.uniform_matrix(kc, kNR);
  // Pack manually: contiguous strips.
  std::vector<double> ap(static_cast<std::size_t>(kMR) * kc);
  std::vector<double> bp(static_cast<std::size_t>(kc) * kNR);
  for (idx p = 0; p < kc; ++p)
    for (idx i = 0; i < kMR; ++i) ap[static_cast<std::size_t>(p * kMR + i)] = a(i, p);
  for (idx p = 0; p < kc; ++p)
    for (idx j = 0; j < kNR; ++j) bp[static_cast<std::size_t>(p * kNR + j)] = b(p, j);

  Matrix c = Matrix::zero(kMR, kNR);
  micro_kernel(kc, 1.0, ap.data(), bp.data(), 0.0, c.data(), kMR, kMR, kNR);
  Matrix expected = testing::reference_matmul(a, b);
  EXPECT_MATRIX_NEAR(c, expected, 1e-13);
}

TEST(GemmKernel, MicroKernelEdgeTile) {
  MatrixRng rng(609);
  const idx kc = 7, mr = 3, nr = 2;
  std::vector<double> ap(static_cast<std::size_t>(kMR) * kc, 0.0);
  std::vector<double> bp(static_cast<std::size_t>(kc) * kNR, 0.0);
  Matrix a = rng.uniform_matrix(mr, kc);
  Matrix b = rng.uniform_matrix(kc, nr);
  for (idx p = 0; p < kc; ++p) {
    for (idx i = 0; i < mr; ++i) ap[static_cast<std::size_t>(p * kMR + i)] = a(i, p);
    for (idx j = 0; j < nr; ++j) bp[static_cast<std::size_t>(p * kNR + j)] = b(p, j);
  }
  // Guard ring: C larger than the tile; only (mr x nr) may change.
  Matrix c = Matrix::zero(kMR, kNR);
  c.fill(7.0);
  micro_kernel(kc, 1.0, ap.data(), bp.data(), 0.0, c.data(), kMR, mr, nr);
  Matrix expected = testing::reference_matmul(a, b);
  for (idx j = 0; j < kNR; ++j)
    for (idx i = 0; i < kMR; ++i) {
      if (i < mr && j < nr) {
        EXPECT_NEAR(c(i, j), expected(i, j), 1e-13);
      } else {
        EXPECT_EQ(c(i, j), 7.0) << "guard overwritten at " << i << "," << j;
      }
    }
}

TEST(GemmKernel, MicroKernelBetaOneAccumulates) {
  const idx kc = 3;
  std::vector<double> ap(static_cast<std::size_t>(kMR) * kc, 1.0);
  std::vector<double> bp(static_cast<std::size_t>(kc) * kNR, 1.0);
  Matrix c = Matrix::zero(kMR, kNR);
  c.fill(10.0);
  micro_kernel(kc, 1.0, ap.data(), bp.data(), 1.0, c.data(), kMR, kMR, kNR);
  for (idx j = 0; j < kNR; ++j)
    for (idx i = 0; i < kMR; ++i) EXPECT_EQ(c(i, j), 13.0);
}

/// x * y + z with one rounding where the target fuses multiply-adds (as the
/// kernel's contracted `acc += a * b` does), two where it cannot.
double madd(double x, double y, double z) {
#ifdef __FP_FAST_FMA
  return std::fma(x, y, z);
#else
  return x * y + z;
#endif
}

/// The GEMM contract, element by element: C is scaled by beta once, then
/// each kKC-deep block of the inner dimension is summed in order from zero
/// with one multiply-add per step and added as C + alpha * sum. With alpha
/// = +-1 (every caller's) that last update rounds once, fused or not.
Matrix sequential_gemm(bool ta, bool tb, double alpha, const Matrix& a,
                       const Matrix& b, double beta, const Matrix& c0) {
  Matrix c = c0;
  const idx k = ta ? a.rows() : a.cols();
  for (idx j = 0; j < c.cols(); ++j) {
    for (idx i = 0; i < c.rows(); ++i) {
      double cij = beta == 0.0 ? 0.0 : beta == 1.0 ? c(i, j) : c(i, j) * beta;
      for (idx pc = 0; pc < k; pc += kKC) {
        double acc = 0.0;
        for (idx p = pc; p < std::min(k, pc + kKC); ++p) {
          acc = madd(ta ? a(p, i) : a(i, p), tb ? b(j, p) : b(p, j), acc);
        }
        cij = madd(alpha, acc, cij);
      }
      c(i, j) = cij;
    }
  }
  return c;
}

void expect_bitwise_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (idx j = 0; j < got.cols(); ++j) {
    for (idx i = 0; i < got.rows(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                std::bit_cast<std::uint64_t>(want(i, j)))
          << "(" << i << ", " << j << "): " << got(i, j) << " vs "
          << want(i, j);
    }
  }
}

/// (m, n, k, transA, transB): m and n off the kMR x kNR tile, with row
/// edges of one, two and three lane groups, and k from one step to past kKC.
class GemmTileBitwise
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<idx, idx>, idx, bool, bool>> {};

TEST_P(GemmTileBitwise, MatchesSequentialFma) {
  const auto [mn, k, ta, tb] = GetParam();
  const auto [m, n] = mn;
  MatrixRng rng(static_cast<std::uint64_t>(m * 1009 + n * 31 + k));
  const Matrix a = ta ? rng.uniform_matrix(k, m) : rng.uniform_matrix(m, k);
  const Matrix b = tb ? rng.uniform_matrix(n, k) : rng.uniform_matrix(k, n);
  const Matrix c0 = rng.uniform_matrix(m, n);
  for (const auto& [alpha, beta] :
       {std::pair{1.0, 0.0}, std::pair{-1.0, 1.0}, std::pair{1.0, 1.0}}) {
    Matrix c = c0;
    gemm(ta ? Trans::Yes : Trans::No, tb ? Trans::Yes : Trans::No, alpha, a,
         b, beta, c);
    expect_bitwise_equal(c, sequential_gemm(ta, tb, alpha, a, b, beta, c0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmTileBitwise,
    ::testing::Combine(::testing::Values(std::tuple<idx, idx>{1, 1},
                                         std::tuple<idx, idx>{7, 5},
                                         std::tuple<idx, idx>{kMR, kNR},
                                         std::tuple<idx, idx>{kMR + 9, kNR + 3},
                                         std::tuple<idx, idx>{64, 64},
                                         std::tuple<idx, idx>{kMC + 17, 45}),
                       ::testing::Values(idx{1}, idx{16}, idx{32}, idx{257}),
                       ::testing::Bool(), ::testing::Bool()));

TEST(GemmTileBitwise, BatchedItemsMatchSequentialFma) {
  MatrixRng rng(613);
  const idx m = 41, n = 19, k = 33;
  const Matrix shared = rng.uniform_matrix(m, k);
  std::vector<Matrix> bs, cs, c0s;
  for (int item = 0; item < 3; ++item) {
    bs.push_back(rng.uniform_matrix(k, n));
    c0s.push_back(rng.uniform_matrix(m, n));
  }
  cs = c0s;
  gemm_batched(Trans::No, Trans::No, -1.0, {shared},
               {bs[0], bs[1], bs[2]}, 1.0, {cs[0], cs[1], cs[2]});
  for (std::size_t item = 0; item < 3; ++item) {
    expect_bitwise_equal(
        cs[item], sequential_gemm(false, false, -1.0, shared, bs[item], 1.0,
                                  c0s[item]));
  }
}

}  // namespace
}  // namespace dqmc::linalg::detail
