// gemm_batched: every item of a batch must be BITWISE identical to a plain
// gemm() call on the same operands — that is the contract the walker-crowd
// path leans on for trajectory determinism. "Close" is not tested anywhere
// here; every comparison is exact down to the IEEE-754 bit pattern.
#include "linalg/blas3.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "linalg/util.h"
#include "parallel/topology.h"
#include "testing/test_utils.h"

namespace dqmc::linalg {
namespace {

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) { par::set_num_threads(threads); }
  ~ThreadCountGuard() { par::set_num_threads(0); }
};

void expect_bitwise_equal(ConstMatrixView a, ConstMatrixView b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (idx j = 0; j < a.cols(); ++j) {
    for (idx i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a(i, j)),
                std::bit_cast<std::uint64_t>(b(i, j)))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

/// Run one batched case against per-item gemm() on identical inputs.
/// shared_a / shared_b select the single-operand ("walker crowd") forms.
void run_case(bool ta, bool tb, idx m, idx n, idx k, idx count, bool shared_a,
              bool shared_b, double alpha, double beta) {
  const Trans transa = ta ? Trans::Yes : Trans::No;
  const Trans transb = tb ? Trans::Yes : Trans::No;
  MatrixRng rng(static_cast<std::uint64_t>(
      m * 1009 + n * 131 + k * 17 + count * 7 + (ta ? 3 : 0) + (tb ? 1 : 0)));

  const idx na = shared_a ? 1 : count;
  const idx nb = shared_b ? 1 : count;
  std::vector<Matrix> a, b, batched, solo;
  for (idx i = 0; i < na; ++i) {
    a.push_back(ta ? rng.uniform_matrix(k, m) : rng.uniform_matrix(m, k));
  }
  for (idx i = 0; i < nb; ++i) {
    b.push_back(tb ? rng.uniform_matrix(n, k) : rng.uniform_matrix(k, n));
  }
  for (idx i = 0; i < count; ++i) {
    batched.push_back(rng.uniform_matrix(m, n));
    solo.push_back(batched.back());
  }

  std::vector<ConstMatrixView> av(a.begin(), a.end());
  std::vector<ConstMatrixView> bv(b.begin(), b.end());
  std::vector<MatrixView> cv(batched.begin(), batched.end());
  gemm_batched(transa, transb, alpha, av, bv, beta, cv);

  for (idx i = 0; i < count; ++i) {
    const Matrix& ai = a[static_cast<std::size_t>(shared_a ? 0 : i)];
    const Matrix& bi = b[static_cast<std::size_t>(shared_b ? 0 : i)];
    gemm(transa, transb, alpha, ai, bi, beta,
         solo[static_cast<std::size_t>(i)]);
    expect_bitwise_equal(batched[static_cast<std::size_t>(i)],
                         solo[static_cast<std::size_t>(i)],
                         "item " + std::to_string(i));
  }
}

/// Shapes straddling the micro-kernel tile (24x8) and the cache-block
/// boundaries, all four trans combinations, batch sizes around the 2W
/// walker-crowd shapes.
class GemmBatchedSweep
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<idx, idx, idx>, bool, bool, idx>> {};

TEST_P(GemmBatchedSweep, EveryItemBitwiseMatchesGemm) {
  const auto [shape, ta, tb, count] = GetParam();
  const auto [m, n, k] = shape;
  run_case(ta, tb, m, n, k, count, false, false, 1.0, 0.0);
}

TEST_P(GemmBatchedSweep, SharedOperandsBitwiseMatchGemm) {
  const auto [shape, ta, tb, count] = GetParam();
  const auto [m, n, k] = shape;
  // The crowd wrap uses a shared LEFT operand (B * G_i) and a shared RIGHT
  // operand (T_i * Binv) in its two passes; cover both plus alpha/beta.
  run_case(ta, tb, m, n, k, count, /*shared_a=*/true, /*shared_b=*/false,
           1.0, 0.0);
  run_case(ta, tb, m, n, k, count, /*shared_a=*/false, /*shared_b=*/true,
           -0.75, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndFlags, GemmBatchedSweep,
    ::testing::Combine(
        ::testing::Values(std::tuple<idx, idx, idx>{8, 6, 4},
                          std::tuple<idx, idx, idx>{33, 17, 9},
                          std::tuple<idx, idx, idx>{64, 64, 64},
                          std::tuple<idx, idx, idx>{7, 130, 5}),
        ::testing::Bool(), ::testing::Bool(), ::testing::Values(1, 3, 8)));

TEST(GemmBatched, AlphaBetaVariantsStayBitwise) {
  run_case(false, false, 24, 24, 24, 4, false, false, 1.3, 0.7);
  run_case(false, false, 24, 24, 24, 4, false, false, 0.0, 0.4);
  run_case(true, true, 24, 24, 24, 4, true, false, 2.0, -1.0);
}

TEST(GemmBatched, CountOneDelegatesToGemm) {
  run_case(false, true, 19, 23, 31, 1, false, false, 1.1, 0.3);
}

// The packed-buffer contract: results must not depend on the worker count,
// and must stay bitwise equal to the single-threaded per-item gemm (which
// itself is thread-count invariant).
TEST(GemmBatched, ThreadCountInvariantBitwise) {
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    run_case(false, false, 48, 48, 48, 6, true, false, 1.0, 0.0);
    run_case(true, false, 40, 32, 56, 6, false, false, 1.0, 1.0);
  }
}

TEST(GemmBatched, RejectsShapeAndCountMismatches) {
  MatrixRng rng(3);
  Matrix a = rng.uniform_matrix(8, 8);
  Matrix b = rng.uniform_matrix(8, 8);
  Matrix c1 = rng.uniform_matrix(8, 8);
  Matrix c2 = rng.uniform_matrix(8, 8);
  // 2 outputs but 0 inputs / mismatched per-item input counts.
  std::vector<MatrixView> cv{c1, c2};
  EXPECT_THROW(gemm_batched(Trans::No, Trans::No, 1.0, {}, {a, b}, 0.0, cv),
               Error);
  std::vector<ConstMatrixView> one{a};
  std::vector<ConstMatrixView> two{a, b};
  std::vector<MatrixView> empty;
  EXPECT_THROW(gemm_batched(Trans::No, Trans::No, 1.0, two, two, 0.0, empty),
               Error);
}

}  // namespace
}  // namespace dqmc::linalg
