#include "linalg/gemm_kernel.h"

#include <algorithm>
#include <cstring>

namespace dqmc::linalg::detail {

namespace {

/// Depth of one tile in the blocked-transpose pack paths. The transposed
/// operand orientations read the source with stride ld; transposing one
/// kPackTile-deep tile at a time turns those into unit-stride column runs
/// while the (kMR/kNR)-strided destination tile stays cache-resident.
constexpr idx kPackTile = 64;

}  // namespace

void pack_a(ConstMatrixView a, bool trans, idx i0, idx p0, idx mc, idx kc,
            double* buf) {
  // Layout: for each strip of kMR rows, kc columns of kMR contiguous values.
  for (idx is = 0; is < mc; is += kMR) {
    const idx h = std::min(kMR, mc - is);
    if (!trans) {
      for (idx p = 0; p < kc; ++p) {
        double* dst = buf + is * kc + p * kMR;
        const double* src = &a(i0 + is, p0 + p);
        for (idx r = 0; r < h; ++r) dst[r] = src[r];
        for (idx r = h; r < kMR; ++r) dst[r] = 0.0;
      }
    } else {
      // A^T strip rows come from A columns: run the column index r outer
      // inside each p-tile so the source is read in unit-stride runs down
      // column i0+is+r instead of one ld-strided element per p.
      for (idx pt = 0; pt < kc; pt += kPackTile) {
        const idx pn = std::min(kPackTile, kc - pt);
        for (idx r = 0; r < h; ++r) {
          const double* src = &a(p0 + pt, i0 + is + r);
          double* dst = buf + is * kc + pt * kMR + r;
          for (idx p = 0; p < pn; ++p) dst[p * kMR] = src[p];
        }
      }
      if (h < kMR) {
        for (idx p = 0; p < kc; ++p) {
          double* dst = buf + is * kc + p * kMR;
          for (idx r = h; r < kMR; ++r) dst[r] = 0.0;
        }
      }
    }
  }
}

void pack_b(ConstMatrixView b, bool trans, idx p0, idx j0, idx kc, idx nc,
            double* buf) {
  // Layout: for each strip of kNR columns, kc rows of kNR contiguous values.
  for (idx js = 0; js < nc; js += kNR) {
    const idx w = std::min(kNR, nc - js);
    if (trans) {
      for (idx p = 0; p < kc; ++p) {
        double* dst = buf + js * kc + p * kNR;
        const double* src = &b(j0 + js, p0 + p);
        for (idx c = 0; c < w; ++c) dst[c] = src[c];
        for (idx c = w; c < kNR; ++c) dst[c] = 0.0;
      }
    } else {
      // Non-transposed B strips gather one element per source column when
      // walked p-outer; the same blocked transpose as pack_a keeps the
      // source reads unit-stride down each column j0+js+c.
      for (idx pt = 0; pt < kc; pt += kPackTile) {
        const idx pn = std::min(kPackTile, kc - pt);
        for (idx c = 0; c < w; ++c) {
          const double* src = &b(p0 + pt, j0 + js + c);
          double* dst = buf + js * kc + pt * kNR + c;
          for (idx p = 0; p < pn; ++p) dst[p * kNR] = src[p];
        }
      }
      if (w < kNR) {
        for (idx p = 0; p < kc; ++p) {
          double* dst = buf + js * kc + p * kNR;
          for (idx c = w; c < kNR; ++c) dst[c] = 0.0;
        }
      }
    }
  }
}

namespace {

/// Rows of one packed A-strip row that one accumulator covers, and the
/// accumulators per tile column: a kMR-row strip is kMV of them.
constexpr idx kLanes = 8;
constexpr idx kMV = kMR / kLanes;
static_assert(kMR % kLanes == 0, "the A strip is a whole number of lanes");

#if defined(__GNUC__) && !defined(DQMC_NO_VECTOR_EXT)

/// kLanes doubles as a GCC vector, element alignment only (the alignas(8)
/// keeps loads/stores legal at any address; the packed buffers are 64-byte
/// aligned anyway).
typedef double v8df
    __attribute__((vector_size(kLanes * sizeof(double)), aligned(8)));

/// acc[j][v] = sum_p A(8v:8v+8, p) * B(p, j) over the first MV lane groups
/// of the strip. The full tile (MV = kMV) holds kNR x kMV = 24 accumulators,
/// which with the kMV A loads and one broadcast fits the 32 zmm registers of
/// AVX-512. Edge tiles with fewer rows run a smaller MV instead of computing
/// rows that are discarded.
template <idx MV>
inline void accumulate(idx kc, const double* __restrict a,
                       const double* __restrict b, v8df (&acc)[kNR][kMV]) {
  v8df s[kNR][MV] = {};
  for (idx p = 0; p < kc; ++p) {
    v8df av[MV];
#pragma GCC unroll 4
    for (idx v = 0; v < MV; ++v) {
      av[v] = *reinterpret_cast<const v8df*>(a + p * kMR + v * kLanes);
    }
    const double* bp = b + p * kNR;
#pragma GCC unroll 16
    for (idx j = 0; j < kNR; ++j) {
      const double bj = bp[j];
#pragma GCC unroll 4
      for (idx v = 0; v < MV; ++v) s[j][v] += av[v] * bj;
    }
  }
#pragma GCC unroll 16
  for (idx j = 0; j < kNR; ++j) {
#pragma GCC unroll 4
    for (idx v = 0; v < MV; ++v) acc[j][v] = s[j][v];
  }
}

/// C(:, j) <- alpha * acc(:, j) (+ C(:, j) unless beta == 0) for a full
/// kMR x kNR tile.
inline void store_full(double alpha, const v8df (&acc)[kNR][kMV], double beta,
                       double* __restrict c, idx ldc) {
#pragma GCC unroll 16
  for (idx j = 0; j < kNR; ++j) {
#pragma GCC unroll 4
    for (idx v = 0; v < kMV; ++v) {
      v8df* cj = reinterpret_cast<v8df*>(c + j * ldc + v * kLanes);
      // beta is either 0 or 1 in the blocked driver; general beta is
      // applied by the caller before the k-loop.
      if (beta == 0.0) {
        *cj = alpha * acc[j][v];
      } else {
        *cj += alpha * acc[j][v];
      }
    }
  }
}

#else  // portable scalar fallback: the same tile and the same p order

template <idx MV>
inline void accumulate(idx kc, const double* __restrict a,
                       const double* __restrict b,
                       double (&acc)[kNR][kMV][kLanes]) {
  constexpr idx rows = MV * kLanes;
  double s[kNR][rows] = {};
  for (idx p = 0; p < kc; ++p) {
    const double* ap = a + p * kMR;
    const double* bp = b + p * kNR;
    for (idx j = 0; j < kNR; ++j) {
      const double bj = bp[j];
      for (idx i = 0; i < rows; ++i) s[j][i] += ap[i] * bj;
    }
  }
  for (idx j = 0; j < kNR; ++j) {
    for (idx i = 0; i < rows; ++i) acc[j][i / kLanes][i % kLanes] = s[j][i];
  }
}

#endif

/// accumulate<mv> for a run-time lane-group count 1 <= mv <= MV.
template <idx MV, typename Acc>
inline void accumulate_edge(idx mv, idx kc, const double* a, const double* b,
                            Acc& acc) {
  if constexpr (MV > 1) {
    if (mv < MV) return accumulate_edge<MV - 1>(mv, kc, a, b, acc);
  }
  accumulate<MV>(kc, a, b, acc);
}

}  // namespace

void micro_kernel(idx kc, double alpha, const double* a, const double* b,
                  double beta, double* c, idx ldc, idx mr, idx nr) {
#if defined(__GNUC__) && !defined(DQMC_NO_VECTOR_EXT)
  v8df acc[kNR][kMV];
  if (mr == kMR && nr == kNR) {
    accumulate<kMV>(kc, a, b, acc);
    store_full(alpha, acc, beta, c, ldc);
    return;
  }
#else
  double acc[kNR][kMV][kLanes];
#endif
  // Edge tile: accumulate only the lane groups that hold valid rows, then
  // write the valid part with the full tile's alpha * acc (+ C) update.
  accumulate_edge<kMV>((mr + kLanes - 1) / kLanes, kc, a, b, acc);
  const double* tile = reinterpret_cast<const double*>(acc);
  for (idx j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    const double* tj = tile + j * kMR;
    if (beta == 0.0) {
      for (idx i = 0; i < mr; ++i) cj[i] = alpha * tj[i];
    } else {
      for (idx i = 0; i < mr; ++i) cj[i] += alpha * tj[i];
    }
  }
}

}  // namespace dqmc::linalg::detail
