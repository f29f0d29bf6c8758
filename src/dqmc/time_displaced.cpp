#include "dqmc/time_displaced.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "dqmc/cluster_store.h"
#include "parallel/task_runtime.h"

namespace dqmc::core {

namespace {

/// One spin's walk over a complete stack's stored side, segment by
/// segment, into its buffers.
class SpinWalk {
 public:
  SpinWalk(const BMatrixFactory& factory, const HSField& field,
           idx cluster_size, const BoundaryStack& stack, Spin s,
           StratAlgorithm algorithm, idx qr_block, DisplacedSpinBuffers& buf,
           bool keep_tautau)
      : factory_(factory), field_(field), k_(cluster_size), s_(s), buf_(buf),
        keep_tautau_(keep_tautau), walk_(stack, algorithm, qr_block) {
    const idx n = factory.n();
    const auto k = static_cast<std::size_t>(cluster_size);
    buf.g_tau0.resize(k);
    buf.g_0tau.resize(k);
    if (keep_tautau) buf.g_tautau.resize(k);
    buf.tautau_diag.resize(n, cluster_size);
    buf.running.resize(n, n);
  }

  /// The segment that starts at the walk's boundary b: the slices of
  /// cluster b, or slice L alone at the last boundary. The boundary is
  /// closed exactly, the slices after it propagate from it (bounded error:
  /// at most cluster_size single-slice steps).
  void segment() {
    const auto [begin, end] = segment_of(walk_.boundary());
    const idx n = factory_.n();
    for (idx i = 0; i < end - begin; ++i) {
      buf_.g_tau0[static_cast<std::size_t>(i)].resize(n, n);
      buf_.g_0tau[static_cast<std::size_t>(i)].resize(n, n);
    }
    walk_.close(buf_.running, buf_.g_tau0[0], buf_.g_0tau[0]);
    record_tautau(0);
    for (idx l = begin + 1; l < end; ++l) {
      const auto i = static_cast<std::size_t>(l - begin);
      const hubbard::hs_t* h = field_.slice(l - 1);
      // G(l,0) = B_l * G(l-1,0)
      factory_.apply_b_left(h, s_, buf_.g_tau0[i - 1], buf_.g_tau0[i]);
      // G(0,l) = G(0,l-1) * B_l^{-1}
      factory_.apply_b_inv_right(h, s_, buf_.g_0tau[i - 1], buf_.g_0tau[i]);
      // G(l,l) = B_l G(l-1,l-1) B_l^{-1} (the wrapping update).
      factory_.wrap(h, s_, buf_.running);
      record_tautau(static_cast<idx>(i));
    }
  }

  /// Cross the next cluster: form its product and push it.
  void advance() {
    const idx c = walk_.next_cluster();
    form_cluster_product(factory_, field_, s_, c * k_,
                         std::min(field_.slices(), (c + 1) * k_), product_,
                         work_);
    walk_.advance(product_);
  }

  bool done() const { return walk_.done(); }
  idx boundary() const { return walk_.boundary(); }

  /// Slices [begin, end) of the segment starting at boundary b.
  std::pair<idx, idx> segment_of(idx b) const {
    const idx L = field_.slices();
    if (b * k_ >= L) return {L, L + 1};
    return {b * k_, std::min(L, (b + 1) * k_)};
  }

 private:
  void record_tautau(idx i) {
    const Matrix& g = buf_.running;
    double* diag = buf_.tautau_diag.col(i);
    for (idx j = 0; j < g.rows(); ++j) diag[j] = g(j, j);
    if (keep_tautau_) buf_.g_tautau[static_cast<std::size_t>(i)] = g;
  }

  const BMatrixFactory& factory_;
  const HSField& field_;
  idx k_;
  Spin s_;
  DisplacedSpinBuffers& buf_;
  bool keep_tautau_;
  StackWalk walk_;
  Matrix product_, work_;
};

}  // namespace

DisplacedSlice displaced_slice(const TimeDisplaced& td, idx l) {
  const auto lu = static_cast<std::size_t>(l);
  const Matrix& gtt = td.g_tautau[lu];
  return {&td.g_tau0[lu], &td.g_0tau[lu], gtt.data(), gtt.rows() + 1};
}

DisplacedSlice DisplacedSegment::slice(Spin s, idx l) const {
  const DisplacedSpinBuffers& b =
      buffers->spin[static_cast<std::size_t>(hubbard::spin_index(s))];
  const idx i = l - begin;
  const auto iu = static_cast<std::size_t>(i);
  return {&b.g_tau0[iu], &b.g_0tau[iu], b.tautau_diag.col(i), 1};
}

DisplacedBoundary displaced_greens(const UDT* prefix, const UDT* suffix) {
  DQMC_CHECK_MSG(prefix || suffix, "both chain parts empty");
  const idx n = prefix ? prefix->u.rows() : suffix->u.rows();
  DisplacedBoundary out{Matrix(n, n), Matrix(n, n), Matrix(n, n)};
  Matrix h, x, y;
  close_boundary(prefix ? ChainFactors::of(*prefix) : ChainFactors{},
                 suffix ? ChainFactors::of(*suffix) : ChainFactors{},
                 out.g_tautau, out.g_tau0, out.g_0tau, h, x, y);
  return out;
}

TimeDisplacedGreens::TimeDisplacedGreens(const BMatrixFactory& factory,
                                         const HSField& field,
                                         idx cluster_size,
                                         StratAlgorithm algorithm,
                                         idx qr_block)
    : factory_(factory), field_(field), cluster_size_(cluster_size),
      algorithm_(algorithm), qr_block_(qr_block) {
  DQMC_CHECK(cluster_size >= 1);
  DQMC_CHECK(qr_block >= 1);
  DQMC_CHECK(factory.n() == field.sites());
}

void TimeDisplacedGreens::walk(std::array<const BoundaryStack*, 2> stored,
                               std::span<const Spin> spins,
                               DisplacedBuffers& buffers, bool keep_tautau,
                               const SegmentSink& sink) const {
  // Each spin's tasks share nothing with the other's but the read-only
  // field and stacks; like the engine's spin groups, two spins split the
  // caller's threads for their kernels.
  std::array<std::optional<SpinWalk>, 2> walks;
  const auto for_spins = [&](const auto& body) {
    if (spins.size() == 1) {
      body(spins[0]);
      return;
    }
    par::TaskGroup group(2);
    for (Spin s : spins) group.run([&body, s] { body(s); });
    group.wait();
  };
  const auto slot = [](Spin s) {
    return static_cast<std::size_t>(hubbard::spin_index(s));
  };
  for (Spin s : spins) {
    const BoundaryStack* stack = stored[slot(s)];
    DQMC_CHECK_MSG(stack != nullptr && stack->n() == n() &&
                       stack->clusters() == (slices() + cluster_size_ - 1) /
                                                cluster_size_,
                   "boundary stack covers a different chain");
    walks[slot(s)].emplace(factory_, field_, cluster_size_, *stack, s,
                           algorithm_, qr_block_, buffers.spin[slot(s)],
                           keep_tautau);
  }
  const SpinWalk& lead = *walks[slot(spins[0])];
  for (;;) {
    for_spins([&](Spin s) { walks[slot(s)]->segment(); });
    DisplacedSegment seg;
    std::tie(seg.begin, seg.end) = lead.segment_of(lead.boundary());
    seg.buffers = &buffers;
    sink(seg);
    if (lead.done()) break;
    for_spins([&](Spin s) { walks[slot(s)]->advance(); });
  }
}

void TimeDisplacedGreens::stream(std::array<const BoundaryStack*, 2> stored,
                                 DisplacedBuffers& buffers,
                                 const SegmentSink& sink) const {
  walk(stored, hubbard::kSpins, buffers, /*keep_tautau=*/false, sink);
}

std::array<TimeDisplaced, 2> TimeDisplacedGreens::materialize(
    std::span<const Spin> spins) const {
  // A private stack per spin holding the suffixes, built from the identity
  // as a down sweep leaves them; the walk then goes up over it.
  const idx m = (slices() + cluster_size_ - 1) / cluster_size_;
  std::array<std::optional<BoundaryStack>, 2> stacks;
  std::array<const BoundaryStack*, 2> stored{};
  for (Spin s : spins) {
    const auto si = static_cast<std::size_t>(hubbard::spin_index(s));
    BoundaryStack& stack = stacks[si].emplace(n(), m, algorithm_, qr_block_);
    stack.start(SweepDirection::kDown);
    Matrix product, work;
    for (idx c = m - 1; c >= 0; --c) {
      form_cluster_product(factory_, field_, s, c * cluster_size_,
                           std::min(slices(), (c + 1) * cluster_size_),
                           product, work);
      stack.push(product);
    }
    stored[si] = &stack;
  }
  DisplacedBuffers buffers;
  std::array<TimeDisplaced, 2> out;
  const auto count = static_cast<std::size_t>(slices()) + 1;
  for (Spin s : spins) {
    TimeDisplaced& td = out[static_cast<std::size_t>(hubbard::spin_index(s))];
    td.g_tau0.resize(count);
    td.g_0tau.resize(count);
    td.g_tautau.resize(count);
  }
  // Take each slice's matrices out of the segment slots; the walk sizes
  // fresh ones for the next segment.
  walk(stored, spins, buffers, /*keep_tautau=*/true,
       [&](const DisplacedSegment& seg) {
         for (Spin s : spins) {
           const auto si = static_cast<std::size_t>(hubbard::spin_index(s));
           DisplacedSpinBuffers& b = buffers.spin[si];
           TimeDisplaced& td = out[si];
           for (idx l = seg.begin; l < seg.end; ++l) {
             const auto i = static_cast<std::size_t>(l - seg.begin);
             const auto lu = static_cast<std::size_t>(l);
             td.g_tau0[lu] = std::exchange(b.g_tau0[i], Matrix());
             td.g_0tau[lu] = std::exchange(b.g_0tau[i], Matrix());
             td.g_tautau[lu] = std::exchange(b.g_tautau[i], Matrix());
           }
         }
       });
  return out;
}

TimeDisplaced TimeDisplacedGreens::compute(Spin s) const {
  const Spin spins[1] = {s};
  return std::move(
      materialize(spins)[static_cast<std::size_t>(hubbard::spin_index(s))]);
}

std::array<TimeDisplaced, 2> TimeDisplacedGreens::compute_both() const {
  return materialize(hubbard::kSpins);
}

Vector TimeDisplacedGreens::local_greens(Spin s) const {
  const TimeDisplaced td = compute(s);
  Vector gloc(static_cast<idx>(td.g_tau0.size()));
  for (std::size_t l = 0; l < td.g_tau0.size(); ++l) {
    double tr = 0.0;
    for (idx i = 0; i < n(); ++i) tr += td.g_tau0[l](i, i);
    gloc[static_cast<idx>(l)] = tr / static_cast<double>(n());
  }
  return gloc;
}

}  // namespace dqmc::core
