// google-benchmark micro-benchmarks of the dense kernels underlying every
// figure: GEMM, blocked QR and its explicit-Q build, the triangular T update,
// the closure's LU factor and solve, pivoted QR, the pre-pivot column-norm sort, and the fine-grain scaling
// kernels of Section IV-B, the checkerboard (split-bond) appliers, the
// exact kinetic factor applied through its Kronecker factors, and one slice
// of the delayed-update site loop.
//
// Complements the per-figure harness binaries with statistically robust
// per-kernel timings (use --benchmark_filter=... to select).
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <utility>

#include "common/stopwatch.h"
#include "dqmc/delayed_update.h"

#include "hubbard/checkerboard.h"
#include "hubbard/kinetic_operator.h"
#include "linalg/blas1.h"
#include "linalg/blas3.h"
#include "linalg/cb_operator.h"
#include "linalg/diag.h"
#include "linalg/lu.h"
#include "linalg/norms.h"
#include "linalg/qr.h"
#include "linalg/qrp.h"
#include "linalg/util.h"
#include "parallel/task_runtime.h"
#include "parallel/topology.h"

namespace {

using namespace dqmc::linalg;

void BM_Gemm(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n));
  const Matrix a = rng.uniform_matrix(n, n);
  const Matrix b = rng.uniform_matrix(n, n);
  Matrix c = Matrix::zero(n, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Transposed-operand variants: these exercise the strided reads in
// pack_a (transA) / pack_b (transB), which the blocked-transpose tiling in
// gemm_kernel.cpp turns into contiguous row-segment copies. Regressing
// these toward BM_Gemm's GFlops is the point of that satellite.
void BM_GemmTrans(benchmark::State& state) {
  const idx n = state.range(0);
  const bool ta = state.range(1) != 0;
  const bool tb = state.range(2) != 0;
  MatrixRng rng(static_cast<std::uint64_t>(n));
  const Matrix a = rng.uniform_matrix(n, n);
  const Matrix b = rng.uniform_matrix(n, n);
  Matrix c = Matrix::zero(n, n);
  for (auto _ : state) {
    gemm(ta ? Trans::Yes : Trans::No, tb ? Trans::Yes : Trans::No, 1.0, a, b,
         0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_GemmTrans)
    ->ArgNames({"n", "transA", "transB"})
    ->Args({128, 1, 0})
    ->Args({256, 1, 0})
    ->Args({512, 1, 0})
    ->Args({128, 0, 1})
    ->Args({256, 0, 1})
    ->Args({512, 0, 1})
    ->Args({128, 1, 1})
    ->Args({256, 1, 1})
    ->Args({512, 1, 1});

// Batched GEMM with the shared left operand of the walker-crowd wrap:
// one resident B streamed against `batch` per-walker panels.
void BM_GemmBatchedShared(benchmark::State& state) {
  const idx n = state.range(0);
  const idx batch = state.range(1);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 7);
  const Matrix shared = rng.uniform_matrix(n, n);
  std::vector<Matrix> bs, cs;
  for (idx i = 0; i < batch; ++i) {
    bs.push_back(rng.uniform_matrix(n, n));
    cs.push_back(Matrix::zero(n, n));
  }
  const std::vector<ConstMatrixView> av{shared};
  const std::vector<ConstMatrixView> bv(bs.begin(), bs.end());
  std::vector<MatrixView> cv(cs.begin(), cs.end());
  for (auto _ : state) {
    gemm_batched(Trans::No, Trans::No, 1.0, av, bv, 0.0, cv);
    benchmark::DoNotOptimize(cs.front().data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(batch) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_GemmBatchedShared)
    ->ArgNames({"n", "batch"})
    ->Args({64, 8})
    ->Args({128, 8})
    ->Args({128, 16})
    ->Args({256, 8});

void BM_QrBlocked(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 1);
  const Matrix a = rng.uniform_matrix(n, n);
  for (auto _ : state) {
    QRFactorization f = qr_factor(a);
    benchmark::DoNotOptimize(f.factors.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      4.0 / 3.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_QrBlocked)->Arg(128)->Arg(256)->Arg(512);

// The two other kernels of a graded stratification step besides the QR
// itself: the explicit Q build (dorgqr analogue; 4/3 n^3 flops for a square
// factorization) and the upper-triangular T update trmm (n^3 flops).
void BM_QrQ(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 8);
  const QRFactorization f = qr_factor(rng.uniform_matrix(n, n));
  for (auto _ : state) {
    Matrix q = qr_q(f);
    benchmark::DoNotOptimize(q.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      4.0 / 3.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_QrQ)->Arg(64)->Arg(256);

void BM_TrmmUpper(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 9);
  const Matrix t = rng.uniform_matrix(n, n);
  const Matrix b0 = rng.uniform_matrix(n, n);
  Matrix b = b0;
  for (auto _ : state) {
    state.PauseTiming();
    copy(b0, b);
    state.ResumeTiming();
    trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t, b);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_TrmmUpper)->Arg(64)->Arg(256);

// The LU of the two-sided Green's-function closure (one per boundary and
// spin) and its solve against n columns (the equal-time closure) or 2n (the
// three-family closure that also forms G(l,0) and G(0,l)). The factored
// matrix is diagonally dominant, as the closure's well-conditioned middle
// matrix is. GFlops counts 2/3 n^3 for the factorization and 2 n^2 per
// right-hand side for the solve.
Matrix lu_test_matrix(idx n) {
  MatrixRng rng(static_cast<std::uint64_t>(n) + 19);
  Matrix a = rng.uniform_matrix(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_LuFactor(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix a = lu_test_matrix(n);
  for (auto _ : state) {
    LUFactorization f = lu_factor(a);
    benchmark::DoNotOptimize(f.factors.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 / 3.0 * static_cast<double>(n) * n * n *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_LuFactor)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_LuSolve(benchmark::State& state) {
  const idx n = state.range(0);
  const idx rhs = state.range(1) * n;
  const LUFactorization f = lu_factor(lu_test_matrix(n));
  MatrixRng rng(static_cast<std::uint64_t>(n) + 23);
  const Matrix b0 = rng.uniform_matrix(n, rhs);
  Matrix b = b0;
  for (auto _ : state) {
    state.PauseTiming();
    copy(b0, b);
    state.ResumeTiming();
    lu_solve(f, Trans::No, b);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * static_cast<double>(rhs) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_LuSolve)
    ->ArgNames({"n", "rhs_per_n"})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_QrPivoted(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 2);
  const Matrix a = rng.uniform_matrix(n, n);
  for (auto _ : state) {
    QRPFactorization f = qrp_factor(a);
    benchmark::DoNotOptimize(f.factors.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      4.0 / 3.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_QrPivoted)->Arg(128)->Arg(256)->Arg(512);

void BM_PrePivotSort(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 3);
  const Matrix a = rng.graded_matrix(n, 0.97);
  for (auto _ : state) {
    Permutation p = prepivot_permutation(a);
    benchmark::DoNotOptimize(p.map().data());
  }
}
BENCHMARK(BM_PrePivotSort)->Arg(256)->Arg(1024);

void BM_ColumnNorms(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 4);
  const Matrix a = rng.uniform_matrix(n, n);
  Vector out(n);
  for (auto _ : state) {
    column_norms(a, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ColumnNorms)->Arg(256)->Arg(1024);

void BM_ScaleRows(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 5);
  Matrix a = rng.uniform_matrix(n, n);
  Vector d(n);
  for (idx i = 0; i < n; ++i) d[i] = rng.uniform(0.9, 1.1);
  for (auto _ : state) {
    scale_rows(d.data(), a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_ScaleRows)->Arg(256)->Arg(1024);

void BM_WrapScaling(benchmark::State& state) {
  const idx n = state.range(0);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 6);
  Matrix a = rng.uniform_matrix(n, n);
  Vector d(n);
  for (idx i = 0; i < n; ++i) d[i] = rng.uniform(0.9, 1.1);
  for (auto _ : state) {
    scale_rows_cols_inv(d.data(), d.data(), a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_WrapScaling)->Arg(256)->Arg(1024);

}  // namespace

// Checkerboard apply of e^{-dtau K} to an n x n operand from the left
// (cluster products, G(l,0) propagation, wrap) and from the right (wrap,
// G(0,l) propagation) on an L x L square lattice, n = L^2. Iterations
// alternate B and B^{-1} (same cost) so the operand stays bounded.
void BM_CbApply(benchmark::State& state) {
  const idx l = state.range(0);
  const CbSide side = state.range(1) == 0 ? CbSide::kLeft : CbSide::kRight;
  const dqmc::hubbard::CheckerboardB cb(dqmc::hubbard::Lattice(l, l),
                                        dqmc::hubbard::ModelParams{});
  const idx n = cb.n();
  MatrixRng rng(static_cast<std::uint64_t>(n) + 11);
  Matrix x = rng.uniform_matrix(n, n);
  bool inverse = false;
  for (auto _ : state) {
    cb_apply(cb.op(), side, inverse, x);
    inverse = !inverse;
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_CbApply)
    ->ArgNames({"L", "right"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Unit(benchmark::kMicrosecond);

// The exact kinetic factor e^{-dtau K} of an L x L lattice (n = L^2)
// applied to an n x n operand: as a GEMM against the rendered matrix
// (path 0), and through its Kronecker factors from the left (path 1) and
// the right (path 2), at a thread budget of `threads`. Iterations alternate
// B and B^{-1} so the operand stays bounded. GFlops counts each path's own
// flops (2 n^3 for the GEMM, 2 n^2 (lx + ly) for the Kronecker applies).
void BM_KineticApply(benchmark::State& state) {
  const idx n = state.range(0);
  const auto l = static_cast<idx>(std::lround(std::sqrt(static_cast<double>(n))));
  const int path = static_cast<int>(state.range(1));
  dqmc::par::set_num_threads(static_cast<int>(state.range(2)));
  const dqmc::hubbard::KineticOperator op(dqmc::hubbard::Lattice(l, l),
                                          dqmc::hubbard::ModelParams{},
                                          dqmc::hubbard::KineticKind::kDense);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 13);
  Matrix x = rng.uniform_matrix(n, n);
  Matrix y(n, n);
  bool inverse = false;
  for (auto _ : state) {
    if (path == 0) {
      gemm(Trans::No, Trans::No, 1.0, inverse ? op.b_inv() : op.b(), x, 0.0,
           y);
      std::swap(x, y);
    } else {
      kinetic_apply(op.factor(), path == 1 ? CbSide::kLeft : CbSide::kRight,
                    inverse, x);
    }
    inverse = !inverse;
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  dqmc::par::set_num_threads(0);
  const double flops = path == 0 ? 2.0 * static_cast<double>(n) * n * n
                                 : op.apply_flops(n);
  state.counters["GFlops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_KineticApply)
    ->ArgNames({"n", "path", "threads"})
    ->ArgsProduct({{64, 256, 1024}, {0, 1, 2}, {1, 2}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// One slice of the Metropolis site loop through DelayedGreens, both spins,
// as DqmcEngine runs it: a diag() per spin for each of the n sites, 60 % of
// them accepted (a fixed pattern, so every run folds the same ranks), the
// two buffers folded side by side when they fill at rank 32 and at the end
// of the slice. G starts as a well-conditioned 0.5 I + O(1/n) matrix and
// is restored outside the timed region after every slice. The flush_us
// counter is the part of a slice spent in the flushes; the rest is the
// site loop (diag and accept).
void BM_DelayedSlice(benchmark::State& state) {
  const idx n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  constexpr idx kRank = 32;
  constexpr double kAccept = 0.6;
  dqmc::par::set_num_threads(threads);
  MatrixRng rng(static_cast<std::uint64_t>(n) + 17);
  Matrix g0[2];
  for (Matrix& g : g0) {
    g = rng.uniform_matrix(n, n);
    scal(n * n, 1.0 / static_cast<double>(n), g.data());
    for (idx i = 0; i < n; ++i) g(i, i) += 0.5;
  }
  std::vector<char> accepted(static_cast<std::size_t>(n));
  std::mt19937_64 pattern(n);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (char& a : accepted) a = uniform(pattern) < kAccept ? 1 : 0;
  dqmc::core::DelayedGreens dg[2] = {dqmc::core::DelayedGreens(n, kRank),
                                     dqmc::core::DelayedGreens(n, kRank)};
  double flush_s = 0.0;
  const auto flush_both = [&] {
    const dqmc::Stopwatch watch;
    if (threads == 1) {
      dg[0].flush();
      dg[1].flush();
    } else {
      dqmc::par::TaskGroup spins(2);
      for (auto& d : dg) spins.run([&d] { d.flush(); });
      spins.wait();
    }
    flush_s += watch.seconds();
  };
  const double alpha[2] = {std::exp(-1.0) - 1.0, std::exp(1.0) - 1.0};
  for (auto _ : state) {
    state.PauseTiming();
    dg[0].reset(g0[0]);
    dg[1].reset(g0[1]);
    state.ResumeTiming();
    for (idx i = 0; i < n; ++i) {
      const double dup = 1.0 + alpha[0] * (1.0 - dg[0].diag(i));
      const double ddn = 1.0 + alpha[1] * (1.0 - dg[1].diag(i));
      if (!accepted[static_cast<std::size_t>(i)]) continue;
      if (dg[0].pending() == dg[0].max_rank()) flush_both();
      dg[0].accept(alpha[0] / dup, i);
      dg[1].accept(alpha[1] / ddn, i);
    }
    flush_both();
    benchmark::DoNotOptimize(dg[0].base().data());
  }
  dqmc::par::set_num_threads(0);
  state.counters["flush_us"] = benchmark::Counter(
      flush_s * 1e6, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DelayedSlice)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{64, 256}, {1, 2}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

BENCHMARK_MAIN();
