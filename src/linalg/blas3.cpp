#include "linalg/blas3.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "linalg/blas1.h"
#include "linalg/gemm_kernel.h"
#include "parallel/parallel_for.h"

namespace dqmc::linalg {

using namespace detail;

namespace {

/// A packing buffer taken from a per-thread slot and handed back when the
/// call ends, so repeated calls on one thread reuse one allocation. A
/// nested call on the same thread (help-first waiting inside the parallel
/// loop) finds the slot empty and allocates its own.
class ReusedBuffer {
 public:
  ReusedBuffer(AlignedBuffer<double>& slot, std::size_t n)
      : slot_(slot), buf_(std::exchange(slot, AlignedBuffer<double>())) {
    if (buf_.size() < n) buf_ = AlignedBuffer<double>(n);
  }
  ~ReusedBuffer() {
    if (buf_.size() > slot_.size()) slot_ = std::move(buf_);
  }
  ReusedBuffer(const ReusedBuffer&) = delete;
  ReusedBuffer& operator=(const ReusedBuffer&) = delete;

  double* data() noexcept { return buf_.data(); }

 private:
  AlignedBuffer<double>& slot_;
  AlignedBuffer<double> buf_;
};

// The packing buffers of gemm and gemm_batched. A walker crowd calls
// gemm_batched for every wrap with 2W per-item panels; allocating them
// afresh each call (270 KiB at W = 4, n = 64, past glibc's mmap threshold)
// made the allocator raise its mmap and trim thresholds at the first free,
// and the crowd's peak resident set then varied by 3 MiB from run to run.
thread_local AlignedBuffer<double> t_bpack;
thread_local AlignedBuffer<double> t_apack;

/// Flops one parallel GEMM task must carry to pay for its fork-join round
/// trip, which costs 30-60 us when the pool's idle workers sleep: 4 MFlop
/// is about 0.1 ms of one core at the kernel's ~40 GFlop/s.
constexpr double kTaskFlops = 1 << 22;

/// parallel_for grain for tasks of `flops` each: a loop forks only when
/// every chunk carries at least kTaskFlops, so the small GEMMs of the
/// blocked QR (k = 16 panels) and of n = 64 chains never leave the thread.
par::index_t flop_grain(double flops) {
  return std::max<par::index_t>(
      1, static_cast<par::index_t>(std::ceil(kTaskFlops / flops)));
}

/// Scale C by beta (handles 0 and 1 fast paths), columns in parallel.
void scale_c(MatrixView c, double beta) {
  if (beta == 1.0) return;
  par::parallel_for(
      0, c.cols(),
      [&](par::index_t jj) {
        const idx j = static_cast<idx>(jj);
        if (beta == 0.0) {
          std::fill(c.col(j), c.col(j) + c.rows(), 0.0);
        } else {
          scal(c.rows(), beta, c.col(j));
        }
      },
      {.grain = 64});
}

/// Width of one GEBP column slab. Multiple of kNR so slab boundaries fall on
/// packed-strip boundaries; 30 register tiles of work per (row-tile, slab)
/// task keeps tasks coarse while still exposing M x N parallelism.
constexpr idx kGebpNC = 240;
static_assert(kGebpNC % kNR == 0 && kMC % kMR == 0,
              "GEBP slabs and A blocks hold whole register tiles");

/// Inner GEBP block: C(mc x nc) += alpha * Apacked(mc x kc) * Bpacked(kc x nc)
/// partitioned 2D over (M row-tiles) x (N column slabs). Each task owns a
/// disjoint block of C, so no synchronization is needed on the output, and
/// the tile arithmetic is identical whichever thread runs it (bitwise
/// deterministic for any worker count).
void gebp(idx mc, idx nc, idx kc, double alpha, const double* apack,
          const double* bpack, MatrixView c) {
  const idx mtiles = (mc + kMR - 1) / kMR;
  const idx nslabs = (nc + kGebpNC - 1) / kGebpNC;
  par::parallel_for(
      0, mtiles * nslabs,
      [&](par::index_t task) {
        // Row tile fastest: consecutive tasks reuse the same B slab.
        const idx i = static_cast<idx>(task % mtiles) * kMR;
        const idx j0 = static_cast<idx>(task / mtiles) * kGebpNC;
        const idx j1 = std::min(nc, j0 + kGebpNC);
        const idx mr = std::min(kMR, mc - i);
        const double* a = apack + i * kc;
        for (idx j = j0; j < j1; j += kNR) {
          const idx nr = std::min(kNR, nc - j);
          micro_kernel(kc, alpha, a, bpack + j * kc, /*beta=*/1.0,
                       &c(i, j), c.ld(), mr, nr);
        }
      },
      {.grain = flop_grain(2.0 * static_cast<double>(kMR) *
                           static_cast<double>(std::min(nc, kGebpNC)) *
                           static_cast<double>(kc))});
}

/// Flops of one (up to) kMC-row block of an m-row GEMM against an
/// nc x kc panel.
double block_flops(idx m, idx nc, idx kc) {
  return 2.0 * static_cast<double>(std::min(m, kMC)) *
         static_cast<double>(nc) * static_cast<double>(kc);
}

/// The packed driver behind gemm and gemm_batched: C_i <- alpha op(A_i)
/// op(B_i) + beta C_i for every item (shapes already checked; a or b may
/// hold one view shared by all items). gemm is its one-item case.
void gemm_packed(Trans transa, Trans transb, double alpha,
                 std::span<const ConstMatrixView> a,
                 std::span<const ConstMatrixView> b, double beta,
                 std::span<const MatrixView> c) {
  const idx count = static_cast<idx>(c.size());
  const bool ta = transa == Trans::Yes;
  const bool tb = transb == Trans::Yes;
  const idx m = ta ? a[0].cols() : a[0].rows();
  const idx k = ta ? a[0].rows() : a[0].cols();
  const idx n = tb ? b[0].rows() : b[0].cols();
  if (m == 0 || n == 0) return;
  // General beta is applied once up front; the packed loops then accumulate.
  for (const MatrixView& ci : c) scale_c(ci, beta);
  if (k == 0 || alpha == 0.0) return;

  // An A panel shared by several items is packed once, up front, and
  // streamed by every item's GEBP passes; otherwise each task packs its own
  // A block. B panels get one slot per item in the same buffer (one for a
  // shared B).
  const bool shared_a = a.size() == 1 && count > 1;
  const bool shared_b = b.size() == 1;
  // Packed panels are sized for the k actually present: the small-k updates
  // of the blocked QR (k = panel width) then stay far below kKC-deep buffers.
  const idx kcmax = std::min(k, kKC);
  const std::size_t bpack_elems =
      static_cast<std::size_t>(kcmax) * round_up(std::min(n, kNC), kNR);
  const std::size_t apack_elems =
      static_cast<std::size_t>(round_up(std::min(m, kMC), kMR)) * kcmax;
  const idx mblocks = (m + kMC - 1) / kMC;
  ReusedBuffer bpack(t_bpack, shared_b ? bpack_elems : bpack_elems * count);
  ReusedBuffer apack_shared(t_apack, shared_a ? apack_elems * mblocks : 0);

  for (idx jc = 0; jc < n; jc += kNC) {
    const idx nc = std::min(kNC, n - jc);
    for (idx pc = 0; pc < k; pc += kKC) {
      const idx kc = std::min(kKC, k - pc);
      const idx nstrips = (nc + kNR - 1) / kNR;

      if (shared_b) {
        // Parallel pack of the shared B panel: each task packs a disjoint
        // run of kNR-wide strips (the packed layout composes over strip
        // ranges, so the buffer contents are identical to a serial pack).
        par::parallel_for_chunks(
            0, nstrips,
            [&](par::index_t s0, par::index_t s1) {
              const idx js = static_cast<idx>(s0) * kNR;
              const idx w = std::min(nc - js, static_cast<idx>(s1 - s0) * kNR);
              pack_b(b[0], tb, pc, jc + js, kc, w, bpack.data() + js * kc);
            },
            {.grain = 16});
      } else {
        // One flat task space over (item, strip); each strip packs exactly
        // the bytes a serial per-item pack_b would, so every item's panel is
        // bit-identical to its one-item pack.
        par::parallel_for_chunks(
            0, count * nstrips,
            [&](par::index_t t0, par::index_t t1) {
              for (par::index_t t = t0; t < t1; ++t) {
                const idx item = static_cast<idx>(t) / nstrips;
                const idx js = (static_cast<idx>(t) % nstrips) * kNR;
                const idx w = std::min(kNR, nc - js);
                pack_b(b[item], tb, pc, jc + js, kc, w,
                       bpack.data() + item * bpack_elems + js * kc);
              }
            },
            {.grain = 16});
      }

      if (shared_a) {
        par::parallel_for_chunks(
            0, mblocks,
            [&](par::index_t blk0, par::index_t blk1) {
              for (par::index_t blk = blk0; blk < blk1; ++blk) {
                const idx ic = static_cast<idx>(blk) * kMC;
                const idx mc = std::min(kMC, m - ic);
                pack_a(a[0], ta, ic, pc, mc, kc,
                       apack_shared.data() + blk * apack_elems);
              }
            },
            {.grain = 1});
      }

      // BLIS-style threading of the ic loop, all items x mblocks GEBP passes
      // in one task region. Each task owns a disjoint block of one item's C
      // and runs the identical tile arithmetic whatever the item count, so
      // the schedule (and the batching itself) never changes any item's
      // bits. A task packing its own A block takes its thread's slot; a
      // thread that helps inside a nested wait while its first task still
      // holds the slot finds it empty and allocates.
      par::parallel_for_chunks(
          0, count * mblocks,
          [&](par::index_t t0, par::index_t t1) {
            ReusedBuffer apack(t_apack, shared_a ? 0 : apack_elems);
            for (par::index_t t = t0; t < t1; ++t) {
              // Block index fastest: consecutive tasks walk one item.
              const idx item = static_cast<idx>(t) / mblocks;
              const idx blk = static_cast<idx>(t) % mblocks;
              const idx ic = blk * kMC;
              const idx mc = std::min(kMC, m - ic);
              const double* ap;
              if (shared_a) {
                ap = apack_shared.data() + blk * apack_elems;
              } else {
                pack_a(a[a.size() == 1 ? 0 : item], ta, ic, pc, mc, kc,
                       apack.data());
                ap = apack.data();
              }
              const double* bp = shared_b
                                     ? bpack.data()
                                     : bpack.data() + item * bpack_elems;
              gebp(mc, nc, kc, alpha, ap, bp, c[item].block(ic, jc, mc, nc));
            }
          },
          {.grain = flop_grain(block_flops(m, nc, kc))});
    }
  }
}

}  // namespace

void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const bool ta = transa == Trans::Yes;
  const bool tb = transb == Trans::Yes;
  const idx m = ta ? a.cols() : a.rows();
  const idx k = ta ? a.rows() : a.cols();
  const idx kb = tb ? b.cols() : b.rows();
  const idx n = tb ? b.rows() : b.cols();
  DQMC_CHECK_MSG(k == kb, "gemm inner dimensions differ");
  DQMC_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
  gemm_packed(transa, transb, alpha, {&a, 1}, {&b, 1}, beta, {&c, 1});
}

void gemm_batched(Trans transa, Trans transb, double alpha,
                  const std::vector<ConstMatrixView>& a,
                  const std::vector<ConstMatrixView>& b, double beta,
                  const std::vector<MatrixView>& c) {
  DQMC_CHECK_MSG(!c.empty(), "gemm_batched needs at least one output");
  DQMC_CHECK_MSG(a.size() == c.size() || a.size() == 1,
                 "gemm_batched: a must have one view per item or a single "
                 "shared view");
  DQMC_CHECK_MSG(b.size() == c.size() || b.size() == 1,
                 "gemm_batched: b must have one view per item or a single "
                 "shared view");

  const bool ta = transa == Trans::Yes;
  const bool tb = transb == Trans::Yes;
  const idx m = ta ? a[0].cols() : a[0].rows();
  const idx k = ta ? a[0].rows() : a[0].cols();
  const idx n = tb ? b[0].rows() : b[0].cols();
  for (const ConstMatrixView& ai : a) {
    DQMC_CHECK_MSG((ta ? ai.cols() : ai.rows()) == m &&
                       (ta ? ai.rows() : ai.cols()) == k,
                   "gemm_batched: all A items must share op-dimensions");
  }
  for (const ConstMatrixView& bi : b) {
    DQMC_CHECK_MSG((tb ? bi.cols() : bi.rows()) == k &&
                       (tb ? bi.rows() : bi.cols()) == n,
                   "gemm_batched: all B items must share op-dimensions");
  }
  for (const MatrixView& ci : c) {
    DQMC_CHECK_MSG(ci.rows() == m && ci.cols() == n,
                   "gemm_batched output shape mismatch");
  }
  gemm_packed(transa, transb, alpha, a, b, beta, c);
}

Matrix matmul(ConstMatrixView a, ConstMatrixView b, Trans transa,
              Trans transb) {
  const idx m = transa == Trans::Yes ? a.cols() : a.rows();
  const idx n = transb == Trans::Yes ? b.rows() : b.cols();
  Matrix c(m, n);
  gemm(transa, transb, 1.0, a, b, 0.0, c);
  return c;
}

namespace {

/// Block size for the triangular level-3 drivers: diagonal blocks run the
/// unblocked kernels, everything else becomes GEMM.
constexpr idx kTriBlock = 64;

/// Is the effective factor op(T) upper triangular?
bool effective_upper(UpLo uplo, Trans trans) {
  return (uplo == UpLo::Upper && trans == Trans::No) ||
         (uplo == UpLo::Lower && trans == Trans::Yes);
}

/// Right-hand-side columns one diagonal-block pass carries, as kTriVecs
/// vectors of kTriLanes doubles per row.
constexpr idx kTriLanes = 8;
constexpr idx kTriVecs = 2;
constexpr idx kTriGroup = kTriLanes * kTriVecs;
/// Rows whose chains run side by side over their common range: with
/// kTriVecs vectors per row that is 8 independent FMA chains, enough to
/// cover the FMA latency.
constexpr idx kTriRows = 4;

#if defined(__GNUC__) && !defined(DQMC_NO_VECTOR_EXT)

/// kTriLanes doubles as one GCC vector (element alignment only).
typedef double Lanes
    __attribute__((vector_size(kTriLanes * sizeof(double)), aligned(8)));

/// a + x c and a - x c, each one contracted multiply-add per lane.
inline Lanes madd(Lanes a, Lanes x, double c) { return a + x * c; }
inline Lanes msub(Lanes a, Lanes x, double c) { return a - x * c; }

/// `updated` in the lanes where x != 0, `kept` where x == 0.
inline Lanes unless_zero(Lanes x, Lanes updated, Lanes kept) {
  return x != 0.0 ? updated : kept;
}

#else  // portable scalar fallback: the same operations lane by lane

struct Lanes {
  double e[kTriLanes];
};

inline Lanes madd(Lanes a, Lanes x, double c) {
  for (idx l = 0; l < kTriLanes; ++l) a.e[l] = a.e[l] + x.e[l] * c;
  return a;
}
inline Lanes msub(Lanes a, Lanes x, double c) {
  for (idx l = 0; l < kTriLanes; ++l) a.e[l] = a.e[l] - x.e[l] * c;
  return a;
}
inline Lanes operator+(Lanes a, Lanes b) {
  for (idx l = 0; l < kTriLanes; ++l) a.e[l] += b.e[l];
  return a;
}
inline Lanes operator-(Lanes a, Lanes b) {
  for (idx l = 0; l < kTriLanes; ++l) a.e[l] -= b.e[l];
  return a;
}
inline Lanes operator/(Lanes a, double c) {
  for (idx l = 0; l < kTriLanes; ++l) a.e[l] /= c;
  return a;
}
inline Lanes unless_zero(Lanes x, Lanes updated, Lanes kept) {
  for (idx l = 0; l < kTriLanes; ++l) {
    if (x.e[l] == 0.0) updated.e[l] = kept.e[l];
  }
  return updated;
}

#endif

inline Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

/// The diagonal-block kernels of the left-side trsm and trmm. A pass takes
/// kTriGroup right-hand-side columns into X, a row-major copy, and computes
/// each row of the result as one chain: row i steps through the rows j of
/// its range in a fixed order, one multiply-add per step, vectorized across
/// the columns. Every element sees the per-column loop's operations in the
/// per-column loop's order:
/// - Trans::No (kAxpy) is the axpy form of trsv and of trmm's column loop:
///   the step takes T(i, j) and X(j), and a lane whose X(j) is zero keeps
///   its value (axpy's alpha == 0 skip). A solve subtracts and ends with the
///   division; trmm starts from the rounded diagonal product.
/// - Trans::Yes is the dot form: the step takes T(j, i) and sums the dot
///   product from zero, ascending in j. The solve subtracts it from X(i);
///   trmm adds it to the diagonal product in one multiply-add, as the
///   column loop's `t(i, i) * x[i] + dot` contracts. (blas1 dot, which the
///   column loop called, may be vectorized by the compiler into an in-order
///   reduction that rounds each product apart from the sum; no production
///   path solves or multiplies by a transposed triangle from the left.)
/// A solve reads the finished rows before i in its processing order, trmm
/// the not yet overwritten rows after it.
template <bool kSolve, bool kAxpy>
class DiagonalBlock {
 public:
  DiagonalBlock(ConstMatrixView t, bool upper, bool unit, double* xs,
           const double* ds)
      : t_(t.data()),
        ld_(t.ld()),
        nb_(t.rows()),
        unit_(unit),
        di_(kSolve == upper ? -1 : 1),
        forward_(kAxpy || (kSolve ? !upper : upper)),
        xs_(xs),
        start_(kSolve || unit ? xs : ds) {}

  void run() {
    idx q = 0;
    // A backward solve chain needs the row just before it finished before
    // its first step, so its rows run one at a time.
    if (!kSolve || forward_) {
      for (; q + kTriRows <= nb_; q += kTriRows) rows<kTriRows>(q);
    }
    for (; q < nb_; ++q) rows<1>(q);
  }

 private:
  /// Row at processing position q.
  idx row(idx q) const { return di_ > 0 ? q : nb_ - 1 - q; }

  double* x(idx i) const { return xs_ + i * kTriGroup; }

  /// `count` steps of the R chains of rows i0, i0 + di, ..., from row j
  /// moving by dj; acc holds R x kTriVecs vectors.
  template <idx R>
  void chain(idx i0, idx j, idx dj, idx count, Lanes* acc) const {
    for (idx s = 0; s < count; ++s, j += dj) {
      Lanes xj[kTriVecs];
      for (idx v = 0; v < kTriVecs; ++v) xj[v] = load(x(j) + v * kTriLanes);
#pragma GCC unroll 4
      for (idx r = 0; r < R; ++r) {
        const idx i = i0 + r * di_;
        const double c = kAxpy ? t_[i + j * ld_] : t_[j + i * ld_];
        Lanes* a = acc + r * kTriVecs;
#pragma GCC unroll 2
        for (idx v = 0; v < kTriVecs; ++v) {
          if constexpr (!kAxpy) {
            a[v] = madd(a[v], xj[v], c);
          } else if constexpr (kSolve) {
            a[v] = unless_zero(xj[v], msub(a[v], xj[v], c), a[v]);
          } else {
            a[v] = unless_zero(xj[v], madd(a[v], xj[v], c), a[v]);
          }
        }
      }
    }
  }

  /// Writes row i's result from its finished chain.
  void finish(idx i, const Lanes* a) const {
    const double tii = t_[i + i * ld_];
    for (idx v = 0; v < kTriVecs; ++v) {
      double* xi = x(i) + v * kTriLanes;
      Lanes out = a[v];
      if constexpr (kSolve && kAxpy) {
        if (!unit_) out = a[v] / tii;
      } else if constexpr (kSolve) {
        out = load(xi) - a[v];
        if (!unit_) out = out / tii;
      } else if constexpr (!kAxpy) {
        out = unit_ ? load(xi) + a[v] : madd(a[v], load(xi), tii);
      }
      store(xi, out);
    }
  }

  /// The R rows at processing positions q0 .. q0 + R - 1.
  template <idx R>
  void rows(idx q0) const {
    const idx i0 = row(q0);
    Lanes acc[R * kTriVecs];
    for (idx r = 0; r < R; ++r) {
      for (idx v = 0; v < kTriVecs; ++v) {
        acc[r * kTriVecs + v] =
            kAxpy ? load(start_ + (i0 + r * di_) * kTriGroup + v * kTriLanes)
                  : Lanes{};
      }
    }
    if constexpr (kSolve) {
      // The rows before the block, then the block's own earlier rows.
      if (forward_) {
        chain<R>(i0, row(0), di_, q0, acc);
        for (idx k = 0; k < R; ++k) {
          chain<1>(i0 + k * di_, i0, di_, k, acc + k * kTriVecs);
          finish(i0 + k * di_, acc + k * kTriVecs);
        }
      } else {
        chain<1>(i0, i0 - di_, -di_, q0, acc);
        finish(i0, acc);
      }
      return;
    }
    // trmm: the block's own later rows and the rows after the block, in the
    // chain's order; every row is finished once all chains have read it.
    const idx rest = nb_ - q0 - R;
    if (forward_) {
      for (idx k = 0; k + 1 < R; ++k) {
        chain<1>(i0 + k * di_, i0 + (k + 1) * di_, di_, R - 1 - k,
                 acc + k * kTriVecs);
      }
      chain<R>(i0, row(q0 + R), di_, rest, acc);
    } else {
      chain<R>(i0, row(nb_ - 1), -di_, rest, acc);
      for (idx k = 0; k + 1 < R; ++k) {
        chain<1>(i0 + k * di_, i0 + (R - 1) * di_, -di_, R - 1 - k,
                 acc + k * kTriVecs);
      }
    }
    for (idx k = 0; k < R; ++k) finish(i0 + k * di_, acc + k * kTriVecs);
  }

  const double* t_;
  idx ld_;
  idx nb_;
  bool unit_;
  idx di_;
  bool forward_;
  double* xs_;
  const double* start_;
};

/// Diagonal-block kernel of the left-side trsm (kSolve: op(T) X = B) and
/// trmm (B <- op(T) B): DiagonalBlock passes over kTriGroup-column groups, the
/// groups in parallel.
template <bool kSolve>
void left_unblocked(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t,
                    MatrixView b) {
  const idx nb = t.rows();
  DQMC_CHECK(nb <= kTriBlock);
  const bool upper = effective_upper(uplo, trans);
  const bool unit = diag == Diag::Unit;
  const idx groups = (b.cols() + kTriGroup - 1) / kTriGroup;
  par::parallel_for(
      0, groups,
      [&](par::index_t g) {
        alignas(64) double xs[kTriBlock * kTriGroup];
        alignas(64) double ds[kTriBlock * kTriGroup];
        const idx c0 = static_cast<idx>(g) * kTriGroup;
        const idx w = std::min(kTriGroup, b.cols() - c0);
        for (idx c = 0; c < kTriGroup; ++c) {
          const double* bc = c < w ? b.col(c0 + c) : nullptr;
          for (idx i = 0; i < nb; ++i) xs[i * kTriGroup + c] = bc ? bc[i] : 0.0;
        }
        if (trans == Trans::No) {
          // trmm's axpy form starts each row from its rounded diagonal
          // product, kept apart from X, whose rows the chains still read.
          if (!kSolve && !unit) {
            for (idx i = 0; i < nb; ++i) {
              for (idx c = 0; c < kTriGroup; ++c) {
                ds[i * kTriGroup + c] = t(i, i) * xs[i * kTriGroup + c];
              }
            }
          }
          DiagonalBlock<kSolve, true>(t, upper, unit, xs, ds).run();
        } else {
          DiagonalBlock<kSolve, false>(t, upper, unit, xs, ds).run();
        }
        for (idx c = 0; c < w; ++c) {
          double* bc = b.col(c0 + c);
          for (idx i = 0; i < nb; ++i) bc[i] = xs[i * kTriGroup + c];
        }
      },
      {.grain = flop_grain(static_cast<double>(nb) * static_cast<double>(nb) *
                           static_cast<double>(kTriGroup))});
}

/// Unblocked X * op(Tkk) = B solve for a small diagonal block. Each row of X
/// is an independent solve, so the row range is split across threads; every
/// row runs the same column-substitution arithmetic regardless of chunking.
void trsm_right_unblocked(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t,
                          MatrixView b) {
  const idx n = t.rows();
  const bool unit = diag == Diag::Unit;
  par::parallel_for_chunks(
      0, b.rows(),
      [&](par::index_t lo_, par::index_t hi_) {
        const idx lo = static_cast<idx>(lo_);
        const idx len = static_cast<idx>(hi_) - lo;
        if (effective_upper(uplo, trans)) {
          for (idx j = 0; j < n; ++j) {
            for (idx i = 0; i < j; ++i) {
              const double tij = trans == Trans::No ? t(i, j) : t(j, i);
              axpy(len, -tij, b.col(i) + lo, b.col(j) + lo);
            }
            if (!unit) scal(len, 1.0 / t(j, j), b.col(j) + lo);
          }
        } else {
          for (idx j = n - 1; j >= 0; --j) {
            for (idx i = j + 1; i < n; ++i) {
              const double tij = trans == Trans::No ? t(i, j) : t(j, i);
              axpy(len, -tij, b.col(i) + lo, b.col(j) + lo);
            }
            if (!unit) scal(len, 1.0 / t(j, j), b.col(j) + lo);
          }
        }
      },
      {.grain = 64});
}

/// Unblocked B <- B * op(Tkk) for a small diagonal block (row-chunk
/// parallel, same independence argument as trsm_right_unblocked).
void trmm_right_unblocked(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t,
                          MatrixView b) {
  const idx n = t.rows();
  const bool unit = diag == Diag::Unit;
  par::parallel_for_chunks(
      0, b.rows(),
      [&](par::index_t lo_, par::index_t hi_) {
        const idx lo = static_cast<idx>(lo_);
        const idx len = static_cast<idx>(hi_) - lo;
        if (effective_upper(uplo, trans)) {
          // Column j reads columns < j: go right to left.
          for (idx j = n - 1; j >= 0; --j) {
            if (!unit) scal(len, t(j, j), b.col(j) + lo);
            for (idx i = 0; i < j; ++i) {
              const double tij = trans == Trans::No ? t(i, j) : t(j, i);
              axpy(len, tij, b.col(i) + lo, b.col(j) + lo);
            }
          }
        } else {
          // Column j reads columns > j: go left to right.
          for (idx j = 0; j < n; ++j) {
            if (!unit) scal(len, t(j, j), b.col(j) + lo);
            for (idx i = j + 1; i < n; ++i) {
              const double tij = trans == Trans::No ? t(i, j) : t(j, i);
              axpy(len, tij, b.col(i) + lo, b.col(j) + lo);
            }
          }
        }
      },
      {.grain = 64});
}

/// Scale all columns of b by alpha, columns in parallel.
void scale_cols(double alpha, MatrixView b) {
  if (alpha == 1.0) return;
  par::parallel_for(
      0, b.cols(),
      [&](par::index_t j) { scal(b.rows(), alpha, b.col(static_cast<idx>(j))); },
      {.grain = 64});
}

}  // namespace

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  DQMC_CHECK(t.rows() == t.cols());
  if (side == Side::Left) {
    DQMC_CHECK(t.rows() == b.rows());
    const idx m = b.rows(), n = b.cols();
    scale_cols(alpha, b);

    // Blocked substitution: solve one kTriBlock diagonal block at a time,
    // then eliminate it from the remaining rows with a GEMM — the level-3
    // formulation that keeps trsm near gemm speed.
    if (effective_upper(uplo, trans)) {
      // Bottom-up.
      for (idx k = (m - 1) / kTriBlock * kTriBlock; k >= 0; k -= kTriBlock) {
        const idx nb = std::min(kTriBlock, m - k);
        left_unblocked<true>(uplo, trans, diag, t.block(k, k, nb, nb),
                            b.block(k, 0, nb, n));
        if (k > 0) {
          // rows [0, k) -= op(T)(0:k, k:k+nb) * X_k
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, t.block(0, k, k, nb),
                 b.block(k, 0, nb, n), 1.0, b.block(0, 0, k, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, t.block(k, 0, nb, k),
                 b.block(k, 0, nb, n), 1.0, b.block(0, 0, k, n));
          }
        }
        if (k == 0) break;  // idx is signed, but avoid wrap past zero
      }
    } else {
      // Top-down.
      for (idx k = 0; k < m; k += kTriBlock) {
        const idx nb = std::min(kTriBlock, m - k);
        left_unblocked<true>(uplo, trans, diag, t.block(k, k, nb, nb),
                            b.block(k, 0, nb, n));
        const idx rest = m - k - nb;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, t.block(k + nb, k, rest, nb),
                 b.block(k, 0, nb, n), 1.0, b.block(k + nb, 0, rest, n));
          } else {
            gemm(Trans::Yes, Trans::No, -1.0, t.block(k, k + nb, nb, rest),
                 b.block(k, 0, nb, n), 1.0, b.block(k + nb, 0, rest, n));
          }
        }
      }
    }
    return;
  }

  // Right side: X * op(T) = alpha * B. Blocked like the left side: eliminate
  // the already-solved column blocks with a GEMM, then solve the diagonal
  // block with the unblocked kernel.
  DQMC_CHECK(t.rows() == b.cols());
  const idx n = t.rows();
  const idx m = b.rows();
  scale_cols(alpha, b);

  if (effective_upper(uplo, trans)) {
    // Left to right: column block k depends on solved blocks [0, k).
    for (idx k = 0; k < n; k += kTriBlock) {
      const idx nb = std::min(kTriBlock, n - k);
      MatrixView bk = b.block(0, k, m, nb);
      if (k > 0) {
        // B_k -= X(:, 0:k) * op(T)(0:k, k:k+nb)
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, 0, m, k),
               t.block(0, k, k, nb), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, 0, m, k),
               t.block(k, 0, nb, k), 1.0, bk);
        }
      }
      trsm_right_unblocked(uplo, trans, diag, t.block(k, k, nb, nb), bk);
    }
  } else {
    // Effective factor lower: right to left.
    for (idx k = (n - 1) / kTriBlock * kTriBlock; k >= 0; k -= kTriBlock) {
      const idx nb = std::min(kTriBlock, n - k);
      MatrixView bk = b.block(0, k, m, nb);
      const idx rest = n - k - nb;
      if (rest > 0) {
        // B_k -= X(:, k+nb:n) * op(T)(k+nb:n, k:k+nb)
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, -1.0, b.block(0, k + nb, m, rest),
               t.block(k + nb, k, rest, nb), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, -1.0, b.block(0, k + nb, m, rest),
               t.block(k, k + nb, nb, rest), 1.0, bk);
        }
      }
      trsm_right_unblocked(uplo, trans, diag, t.block(k, k, nb, nb), bk);
      if (k == 0) break;  // idx is signed, but avoid wrap past zero
    }
  }
}

void trmm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  DQMC_CHECK(t.rows() == t.cols());
  const idx m = b.rows(), n = b.cols();

  if (side == Side::Left) {
    DQMC_CHECK(t.rows() == m);
    // Blocked in place: each block row is op(T)_kk * B_k (unblocked) plus a
    // GEMM against the not-yet-overwritten part of B.
    if (effective_upper(uplo, trans)) {
      // Top-down: row block k only reads rows >= k.
      for (idx k = 0; k < m; k += kTriBlock) {
        const idx nb = std::min(kTriBlock, m - k);
        MatrixView bk = b.block(k, 0, nb, n);
        left_unblocked<false>(uplo, trans, diag, t.block(k, k, nb, nb), bk);
        const idx rest = m - k - nb;
        if (rest > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, t.block(k, k + nb, nb, rest),
                 b.block(k + nb, 0, rest, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, t.block(k + nb, k, rest, nb),
                 b.block(k + nb, 0, rest, n), 1.0, bk);
          }
        }
      }
    } else {
      // Bottom-up: row block k only reads rows <= k.
      for (idx k = (m - 1) / kTriBlock * kTriBlock; k >= 0; k -= kTriBlock) {
        const idx nb = std::min(kTriBlock, m - k);
        MatrixView bk = b.block(k, 0, nb, n);
        left_unblocked<false>(uplo, trans, diag, t.block(k, k, nb, nb), bk);
        if (k > 0) {
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, 1.0, t.block(k, 0, nb, k),
                 b.block(0, 0, k, n), 1.0, bk);
          } else {
            gemm(Trans::Yes, Trans::No, 1.0, t.block(0, k, k, nb),
                 b.block(0, 0, k, n), 1.0, bk);
          }
        }
        if (k == 0) break;
      }
    }
    scale_cols(alpha, b);
    return;
  }

  DQMC_CHECK(t.rows() == n);
  // Right side: B <- alpha * B * op(T), blocked like the left side. Each
  // column block is op(T)_kk applied in place (unblocked) plus a GEMM against
  // the not-yet-overwritten part of B; the traversal order guarantees every
  // GEMM input block is still original.
  if (effective_upper(uplo, trans)) {
    // Column block k reads input columns <= k: go right to left.
    for (idx k = (n - 1) / kTriBlock * kTriBlock; k >= 0; k -= kTriBlock) {
      const idx nb = std::min(kTriBlock, n - k);
      MatrixView bk = b.block(0, k, m, nb);
      trmm_right_unblocked(uplo, trans, diag, t.block(k, k, nb, nb), bk);
      if (k > 0) {
        // B_k += B(:, 0:k) * op(T)(0:k, k:k+nb)
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, 0, m, k),
               t.block(0, k, k, nb), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, 0, m, k),
               t.block(k, 0, nb, k), 1.0, bk);
        }
      }
      if (k == 0) break;
    }
  } else {
    // Column block k reads input columns >= k: go left to right.
    for (idx k = 0; k < n; k += kTriBlock) {
      const idx nb = std::min(kTriBlock, n - k);
      MatrixView bk = b.block(0, k, m, nb);
      trmm_right_unblocked(uplo, trans, diag, t.block(k, k, nb, nb), bk);
      const idx rest = n - k - nb;
      if (rest > 0) {
        // B_k += B(:, k+nb:n) * op(T)(k+nb:n, k:k+nb)
        if (trans == Trans::No) {
          gemm(Trans::No, Trans::No, 1.0, b.block(0, k + nb, m, rest),
               t.block(k + nb, k, rest, nb), 1.0, bk);
        } else {
          gemm(Trans::No, Trans::Yes, 1.0, b.block(0, k + nb, m, rest),
               t.block(k, k + nb, nb, rest), 1.0, bk);
        }
      }
    }
  }
  scale_cols(alpha, b);
}

}  // namespace dqmc::linalg
