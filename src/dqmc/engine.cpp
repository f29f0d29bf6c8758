#include "dqmc/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "dqmc/cluster_store.h"
#include "fault/failpoint.h"
#include "linalg/blas3.h"
#include "linalg/lu.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "parallel/task_runtime.h"
#include "parallel/topology.h"

namespace dqmc::core {

namespace {

/// Run f(0) and f(1), one task per spin, side by side. At a share of 1 a
/// TaskGroup would run them inline in that order anyway: call them directly
/// and skip building it (crowd walkers and fleet workers run here per
/// slice).
template <class F>
void for_both_spins(const F& f) {
  if (par::num_threads() == 1) {
    f(0);
    f(1);
    return;
  }
  par::TaskGroup spins(2);
  spins.run([&f] { f(0); });
  spins.run([&f] { f(1); });
  spins.wait();
}

}  // namespace

void EngineConfig::validate() const {
  DQMC_CHECK_INPUT(cluster_size >= 1, "cluster_size must be >= 1");
  DQMC_CHECK_INPUT(delay_rank >= 1, "delay_rank must be >= 1");
  DQMC_CHECK_INPUT(qr_block >= 1, "qr_block must be >= 1");
}

DqmcEngine::DqmcEngine(const Lattice& lattice, const ModelParams& params,
                       EngineConfig config, std::uint64_t seed,
                       backend::ComputeBackend* shared_backend)
    : lattice_(lattice),
      params_(params),
      config_(config),
      factory_(lattice, params, config.kinetic),
      field_(params.slices, lattice.num_sites()),
      rng_(seed),
      clusters_(config.cluster_size >= 1
                    ? (params.slices + config.cluster_size - 1) /
                          config.cluster_size
                    : 1),
      owned_backend_(shared_backend ? nullptr
                                    : backend::make_backend(config.backend)),
      backend_(shared_backend ? shared_backend : owned_backend_.get()),
      chain_(std::make_unique<backend::BackendBChain>(
          *backend_, factory_.kinetic().factor(), 2)),
      stacks_{BoundaryStack(factory_.n(), clusters_, config.algorithm,
                            config.qr_block),
              BoundaryStack(factory_.n(), clusters_, config.algorithm,
                            config.qr_block)},
      delayed_{DelayedGreens(factory_.n(), config.delay_rank),
               DelayedGreens(factory_.n(), config.delay_rank)} {
  params_.validate();
  config_.validate();
  for (linalg::Matrix& p : products_) p.resize(n(), n());
}

idx DqmcEngine::cluster_end(idx c) const {
  return std::min(slices(), (c + 1) * config_.cluster_size);
}

void DqmcEngine::initialize() {
  field_.randomize(rng_);
  resume(SweepDirection::kUp);
}

void DqmcEngine::resume(SweepDirection next) {
  direction_ = next;
  recompute_greens(0);
  sign_ = sign_from_scratch();
  initialized_ = true;
}

namespace {

double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  double m = 0.0;
  const idx total = a.rows() * a.cols();
  const double* pa = a.data();
  const double* pb = b.data();
  for (idx i = 0; i < total; ++i) {
    const double d = std::fabs(pa[i] - pb[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace

void DqmcEngine::form_products(idx c, Profiler* prof, std::uint64_t calls) {
  ScopedPhase phase(prof, Phase::kClustering, calls);
  phase.arg("cluster", static_cast<double>(c));
  std::vector<std::vector<linalg::Vector>> vs(2);
  for (Spin s : hubbard::kSpins) {
    for (idx l = cluster_begin(c); l < cluster_end(c); ++l) {
      vs[static_cast<std::size_t>(spin_index(s))].push_back(
          factory_.v_diagonal(field_.slice(l), s));
    }
  }
  chain_->cluster_product_into(vs,
                               {products_[0].view(), products_[1].view()});
  record_cluster_products(factory_, cluster_end(c) - cluster_begin(c),
                          phase.close());
}

void DqmcEngine::reset_greens(linalg::Matrix (&fresh)[2], bool record_drift) {
  const bool monitor =
      record_drift && initialized_ && obs::health().enabled();
  for (int si = 0; si < 2; ++si) {
    DelayedGreens& dg = delayed_[si];
    if (monitor) {
      // The wrapped/updated G was advanced to this same cluster boundary;
      // its distance from the clean stratified G is the wrap drift.
      obs::health().record_wrap_drift(
          max_abs_diff(dg.flush(&profiler_), fresh[si]));
    }
    dg.reset(std::move(fresh[si]));
  }
}

void DqmcEngine::boundary_greens(bool record_drift) {
  // The product of the cluster just crossed, both spins in one composite
  // on this thread (an async backend's stream takes one submitter). Then
  // the two spins' pushes and closures side by side, each with half the
  // caller's threads for its nested GEMM/QR loops, billed as one
  // stratification call per spin.
  const bool push = pending_ >= 0;
  if (push) {
    form_products(pending_, &profiler_, 1 + std::exchange(unbilled_, 0));
  } else if (unbilled_ > 0) {
    // stored_stacks() formed and pushed it, billing its time then.
    ScopedPhase phase(&profiler_, Phase::kClustering,
                      std::exchange(unbilled_, 0));
  }
  pending_ = -1;
  linalg::Matrix fresh[2];
  {
    ScopedPhase phase(&profiler_, Phase::kStratification, 2);
    for_both_spins([&](int si) {
      BoundaryStack& stack = stacks_[si];
      if (push) stack.push(products_[si]);
      stack.close(fresh[si]);
    });
    phase.arg("boundary", static_cast<double>(stacks_[0].boundary()));
  }
  reset_greens(fresh, record_drift);
}

void DqmcEngine::rebuild_stacks() {
  // The side the next half reads, pushed from the identity cluster by
  // cluster as the opposite half would have left it: suffixes over m-1
  // down to 0 before an up sweep, prefixes over 0 .. m-1 before a down
  // sweep. One clustering call per product; the pushes bill no call.
  const SweepDirection built = opposite(direction_);
  for (BoundaryStack& stack : stacks_) stack.start(built);
  pending_ = -1;
  unbilled_ = 0;
  for (idx i = 0; i < clusters_; ++i) {
    form_products(stacks_[0].next_cluster(), &profiler_, 1);
    ScopedPhase phase(&profiler_, Phase::kStratification, 0);
    for_both_spins([&](int si) { stacks_[si].push(products_[si]); });
  }
}

void DqmcEngine::recompute_greens(idx cluster) {
  DQMC_CHECK(cluster >= 0 && cluster < clusters_);
  rebuild_stacks();
  // Boundary 0 is tau = 0 going up and tau = beta going down: the same G.
  const idx target = cluster == 0 ? stacks_[0].boundary() : cluster;
  linalg::Matrix fresh[2];
  if (target == stacks_[0].boundary()) {
    ScopedPhase phase(&profiler_, Phase::kStratification, 2);
    for_both_spins([&](int si) { stacks_[si].close(fresh[si]); });
  } else {
    std::optional<StackWalk> walks[2];
    for (int si = 0; si < 2; ++si) {
      walks[si].emplace(stacks_[si], config_.algorithm, config_.qr_block);
    }
    while (walks[0]->boundary() != target) {
      form_products(walks[0]->next_cluster(), nullptr, 0);
      for_both_spins([&](int si) { walks[si]->advance(products_[si]); });
    }
    for_both_spins([&](int si) {
      fresh[si].resize(n(), n());
      walks[si]->close(fresh[si], MatrixView(), MatrixView());
    });
  }
  reset_greens(fresh, false);
}

std::array<const BoundaryStack*, 2> DqmcEngine::stored_stacks() {
  if (pending_ >= 0) {
    // Zero-call brackets, nested in the caller's: the time is the
    // product's and the push's, the calls the next boundary's.
    form_products(pending_, &profiler_, 0);
    ScopedPhase phase(&profiler_, Phase::kStratification, 0);
    for_both_spins([this](int si) { stacks_[si].push(products_[si]); });
    pending_ = -1;
    ++unbilled_;
  }
  return {&stacks_[0], &stacks_[1]};
}

int DqmcEngine::sign_from_scratch() {
  // sign(det M+ det M-) computed through the graded decomposition, whose
  // LU targets are well-conditioned at any beta (LU of G itself has
  // unreliable pivot signs once G's singular values reach rounding).
  // M_s = I + C_s for the full rotation C_s, whose graded decomposition a
  // complete stack holds (as C_s^T, or as the prefix A_m = C_s, with the
  // same determinant): the sign costs two LUs per spin and no push. The
  // per-spin determinants are independent: evaluate them concurrently.
  int sgn[2] = {1, 1};
  for_both_spins([this, &sgn](int si) { sgn[si] = stacks_[si].det_sign(); });
  return sgn[0] * sgn[1];
}

StratStats DqmcEngine::strat_stats() const {
  StratStats merged = stacks_[0].stats();
  const StratStats dn = stacks_[1].stats();
  merged.evaluations += dn.evaluations;
  merged.steps += dn.steps;
  merged.pivot_displacement += dn.pivot_displacement;
  return merged;
}

const linalg::Matrix& DqmcEngine::greens(Spin s) {
  return delayed_[spin_index(s)].flush(&profiler_);
}

void DqmcEngine::metropolis_sites(idx slice, SweepStats& stats) {
  ScopedPhase phase(&profiler_, Phase::kDelayedUpdate);
  const double nu = factory_.nu();
  const idx nsites = n();
  DelayedGreens& gup = delayed_[0];
  DelayedGreens& gdn = delayed_[1];

  for (idx i = 0; i < nsites; ++i) {
    const double h = static_cast<double>(field_(slice, i));
    // Flip h -> -h: alpha_sigma = e^{-2 sigma nu h} - 1.
    const double aup = std::exp(-2.0 * nu * h) - 1.0;
    const double adn = std::exp(+2.0 * nu * h) - 1.0;
    const double dup = 1.0 + aup * (1.0 - gup.diag(i));
    const double ddn = 1.0 + adn * (1.0 - gdn.diag(i));
    const double r = dup * ddn;

    ++stats.proposed;
    if (rng_.uniform() < std::fabs(r)) {
      field_.flip(slice, i);
      // Both buffers fill together: when they are full, fold both side by
      // side before bordering. Like accept()'s own flush this bills no call
      // of its own; its time is this site loop's.
      if (gup.pending() == gup.max_rank()) {
        for_both_spins([this](int si) { delayed_[si].flush(nullptr); });
      }
      gup.accept(aup / dup, i);
      gdn.accept(adn / ddn, i);
      if (r < 0.0) sign_ = -sign_;
      ++stats.accepted;
    }
  }
}

SweepStats DqmcEngine::sweep(const SliceHook& on_slice) {
  DQMC_CHECK_MSG(initialized_, "call initialize() before sweep()");
  const std::optional<WrapFault> fault = hit_wrap_failpoints(slices(), 1);
  const SweepStats stats = sweep_body(fault ? &*fault : nullptr, on_slice);
  finish_sweep(stats);
  return stats;
}

std::optional<DqmcEngine::WrapFault> DqmcEngine::hit_wrap_failpoints(
    idx slices, idx walkers) {
  for (idx slice = 0; slice < slices; ++slice) {
    for (idx w = 0; w < walkers; ++w) {
      try {
        DQMC_FAILPOINT("batch.wrap");
      } catch (...) {
        return WrapFault{slice, w, std::current_exception()};
      }
    }
  }
  return std::nullopt;
}

SweepStats DqmcEngine::sweep_body(const WrapFault* fault,
                                  const SliceHook& on_slice) {
  SweepStats stats;
  const SweepDirection dir = direction_;
  const bool up = dir == SweepDirection::kUp;
  for (idx i = 0; i < clusters_; ++i) {
    const idx c = up ? i : clusters_ - 1 - i;
    // Fresh, numerically clean G at the boundary the sweep enters cluster
    // c through (before it going up, after it going down).
    boundary_greens(true);
    const idx begin = cluster_begin(c), end = cluster_end(c);
    for (idx j = 0; j < end - begin; ++j) {
      const idx slice = up ? begin + j : end - 1 - j;
      if (fault && fault->slice == slice) std::rethrow_exception(fault->error);
      // Going up, G reaches slice l by B_l G B_l^{-1} before its site loop;
      // going down, G sits at l and leaves it by B_l^{-1} G B_l after.
      if (up) wrap_slice(slice, dir);
      metropolis_sites(slice, stats);
      flush_spins();
      if (on_slice) on_slice(slice);
      if (!up) wrap_slice(slice, dir);
    }
    // The slices of cluster c changed: the next boundary forms its product
    // and pushes it (the last cluster's at the next sweep's first one).
    pending_ = c;
  }
  direction_ = opposite(dir);
  return stats;
}

void DqmcEngine::wrap_slice(idx slice, SweepDirection dir) {
  const bool up = dir == SweepDirection::kUp;
  // One entry per chain item (= spin).
  std::vector<linalg::MatrixView> g;
  std::vector<linalg::Vector> v;
  std::vector<char> unchanged;
  for (Spin s : hubbard::kSpins) {
    const int si = spin_index(s);
    DelayedGreens& dg = delayed_[si];
    g.push_back(dg.flush(&profiler_).view());
    // The reverse composite scales by the inverse diagonal.
    v.push_back(up ? factory_.v_diagonal(field_.slice(slice), s)
                   : factory_.v_diagonal_inv(field_.slice(slice), s));
    // G is still resident from the previous wrap unless a Metropolis
    // accept (or a stratification reset) touched it since.
    unchanged.push_back(wrapped_revision_[si] == dg.revision() ? 1 : 0);
    wrapped_revision_[si] = dg.revision();
  }
  const std::vector<const linalg::Vector*> vp = {&v[0], &v[1]};

  // Wrap items [first, first + count) as one composite.
  const auto wrap_items = [&](idx first, idx count) {
    const auto part = [first, count](const auto& all) {
      return std::vector(all.begin() + first, all.begin() + first + count);
    };
    std::vector<idx> items(static_cast<std::size_t>(count));
    std::iota(items.begin(), items.end(), first);
    chain_->wrap(part(g), part(vp), part(unchanged), std::move(items), !up);
  };
  ScopedPhase phase(&profiler_, Phase::kWrapping, 2);  // one call per spin
  if (backend_->async()) {
    // One in-order stream takes one submitter: both spins in one composite.
    wrap_items(0, 2);
  } else {
    // The spins side by side (a synchronous backend is thread-safe across
    // disjoint items).
    for_both_spins([&](int si) { wrap_items(si, 1); });
  }
}

void DqmcEngine::flush_spins() {
  DelayedGreens& up = delayed_[0];
  DelayedGreens& dn = delayed_[1];
  // metropolis_sites accepts on both spins at once and flushes them
  // together, so their pending ranks are equal: one gemm_batched needs
  // uniform dimensions.
  DQMC_CHECK(up.pending() == dn.pending());
  const idx rank = up.pending();
  if (rank == 0) return;

  // Each spin forms its flush operands, then one two-item gemm_batched
  // folds them. Per item this is the arithmetic of DelayedGreens::flush.
  // One delayed-update call per flushed spin.
  ScopedPhase phase(&profiler_, Phase::kDelayedUpdate, 2);
  phase.arg("rank", static_cast<double>(rank));
  for_both_spins([this](int si) { delayed_[si].form_pending(); });
  linalg::gemm_batched(linalg::Trans::No, linalg::Trans::No, 1.0,
                       {up.pending_u(), dn.pending_u()},
                       {up.pending_wt(), dn.pending_wt()}, 1.0,
                       {up.base_for_flush().view(), dn.base_for_flush().view()});
  up.mark_flushed();
  dn.mark_flushed();
  const double seconds = phase.close();
  obs::MetricsRegistry& reg = obs::metrics();
  if (reg.enabled()) {
    for (int si = 0; si < 2; ++si) {
      reg.observe("delayed_update.flush_rank", static_cast<double>(rank));
    }
    // Per spin: U = A X (2 n k^2) and G0 += U W^T (2 n^2 k).
    const double n = static_cast<double>(this->n());
    const double k = static_cast<double>(rank);
    if (seconds > 0.0) {
      reg.observe("gemm.gflops", 2.0 * 2.0 * n * k * (n + k) / seconds / 1e9);
    }
  }
}

void DqmcEngine::finish_sweep(const SweepStats& stats) {
  lifetime_.proposed += stats.proposed;
  lifetime_.accepted += stats.accepted;
  obs::MetricsRegistry& reg = obs::metrics();
  if (reg.enabled()) {
    reg.count("sweeps");
    reg.count("metropolis.proposed", stats.proposed);
    reg.count("metropolis.accepted", stats.accepted);
    reg.set("metropolis.accept_rate", lifetime_.acceptance());
  }
  obs::health().record_sign(sign_);
}

}  // namespace dqmc::core
