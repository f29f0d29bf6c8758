// GEMM micro-kernel and packing routines (internal to blas3.cpp and exposed
// for the kernel-level unit tests).
//
// The implementation follows the Goto/BLIS decomposition: the operands are
// packed into contiguous panels shaped for an MR x NR register-tile
// micro-kernel, giving the level-3 arithmetic intensity that the paper's
// DGEMM-vs-DGEQP3 comparison (Fig. 1) is about.
#pragma once

#include "linalg/matrix.h"

namespace dqmc::linalg::detail {

/// Register-tile shape: 24x8 doubles is 24 accumulators of 8 lanes, which
/// with three A loads and one B broadcast per step fills 28 of AVX-512's 32
/// zmm registers and keeps both FMA pipes busy. Edge tiles run only the
/// 8-row lane groups that hold valid rows. Every C element sums its kKC-deep
/// block in p order with one multiply-add per step whatever the tile, so the
/// tile shape changes no result bit. (Measured against 16x12 on the GEMM,
/// flush and QR shapes at n = 64 and 256; see docs/PERFORMANCE.md.)
inline constexpr idx kMR = 24;
inline constexpr idx kNR = 8;

/// Cache-blocking parameters (elements): A-panel is kMC x kKC (~L2-sized),
/// B-panel kKC x kNC (~L3-sized). Overridable at configure time
/// (-DDQMC_GEMM_MC=...) so bench/micro_kernels can sweep candidate blockings
/// without editing the source; the defaults below are the best of the sweeps
/// recorded in docs/PERFORMANCE.md.
#ifndef DQMC_GEMM_MC
#define DQMC_GEMM_MC 192
#endif
#ifndef DQMC_GEMM_KC
#define DQMC_GEMM_KC 256
#endif
#ifndef DQMC_GEMM_NC
#define DQMC_GEMM_NC 2048
#endif
inline constexpr idx kMC = DQMC_GEMM_MC;
inline constexpr idx kKC = DQMC_GEMM_KC;
inline constexpr idx kNC = DQMC_GEMM_NC;

/// Pack the `mc x kc` block A(i0:i0+mc, p0:p0+kc) (or its transpose when
/// `trans`) into `buf` as column-strips of height kMR, zero-padded to a
/// multiple of kMR rows. buf must hold round_up(mc,kMR)*kc doubles.
void pack_a(ConstMatrixView a, bool trans, idx i0, idx p0, idx mc, idx kc,
            double* buf);

/// Pack the `kc x nc` block B(p0:p0+kc, j0:j0+nc) (or its transpose when
/// `trans`) into `buf` as row-strips of width kNR, zero-padded to a multiple
/// of kNR columns. buf must hold kc*round_up(nc,kNR) doubles.
void pack_b(ConstMatrixView b, bool trans, idx p0, idx j0, idx kc, idx nc,
            double* buf);

/// C(mr x nr) <- alpha * Apanel * Bpanel + beta_is_one? C : beta*C  over a
/// kc-long inner product. `a` points at one packed kMR-strip, `b` at one
/// packed kNR-strip. mr <= kMR, nr <= kNR handle edge tiles.
void micro_kernel(idx kc, double alpha, const double* a, const double* b,
                  double beta, double* c, idx ldc, idx mr, idx nr);

inline idx round_up(idx x, idx m) { return (x + m - 1) / m * m; }

}  // namespace dqmc::linalg::detail
