// The DQMC engine: Metropolis sweeps over the HS field with numerically
// stable Green's function maintenance (Algorithm 1 + Sections III/IV).
//
// There is one sweep body, DqmcEngine::sweep_body. Every engine owns a
// two-item BackendBChain (item 0 spin up, item 1 spin down) on its backend,
// whether it runs alone (sweep()) or as one walker of a crowd
// (walker_batch.h), which steps each walker through the same body.
// Consecutive sweeps alternate direction: up visits the slices 0 .. L-1,
// down visits L-1 .. 0 (the direction is engine state, recorded by the
// checkpoint). Per cluster (k = cluster size = wrap batch, as in the paper
// where k = l = 10) the body runs:
//   1. stratification — fresh G at the cluster's first boundary in sweep
//                       order from the boundary stack (boundary_stack.h):
//                       the two spins push the product of the cluster just
//                       crossed and close the boundary as concurrent tasks
//   2. wrapping       — per slice G <- B_l G B_l^{-1} going up, before the
//                       slice's site loop, and G <- B_l^{-1} G B_l going
//                       down, after it: one composite per spin, side by side
//                       (one two-item composite on an asynchronous backend)
//   3. delayed update — the Metropolis site loop, both spins' rank-1
//                       corrections folded in one two-item batched GEMM per
//                       slice
//   4. clustering     — the just-resampled cluster's product, formed for
//                       both spins as one two-item composite into one
//                       buffer per spin at the next boundary (step 1), which
//                       pushes it at once: the engine caches no products
// The last cluster's product of a sweep is formed at the next sweep's first
// boundary. Per-item arithmetic is the same whatever the crowd, backend or
// thread budget, so a walker's trajectory is bitwise independent of all
// three.
//
// Each phase is bracketed once, on the thread that steps the engine and
// owns its Profiler, around the join of the spins' work, and reports under
// its Table-I name: one site-loop call per slice; a two-call bracket per
// boundary closure, per wrap and per flush (one call per spin); one
// clustering call per cluster product (billed at the boundary that pushes
// it).
#pragma once

#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <optional>

#include "backend/backend.h"
#include "backend/bchain.h"
#include "common/profiler.h"
#include "dqmc/boundary_stack.h"
#include "dqmc/delayed_update.h"
#include "dqmc/hs_field.h"
#include "dqmc/momentum_transform.h"
#include "dqmc/rng.h"
#include "dqmc/stratification.h"
#include "hubbard/bmatrix.h"
#include "hubbard/lattice.h"

namespace dqmc::core {

using hubbard::Lattice;
using hubbard::ModelParams;
using hubbard::Spin;

struct EngineConfig {
  StratAlgorithm algorithm = StratAlgorithm::kPrePivot;
  idx cluster_size = 10;  ///< k (= wrap batch l; Section III-B)
  idx delay_rank = 32;    ///< d: pending rank-1 updates before a GEMM flush
  idx qr_block = linalg::kQrBlock;  ///< panel width of the blocked QR
  /// Compute backend for the hot path (cluster products, wrapping): kHost
  /// runs on the task runtime, kGpuSim on the simulated device with its
  /// virtual-clock cost model (Section VI). Trajectories are bitwise
  /// identical across backends.
  backend::BackendKind backend = backend::BackendKind::kHost;
  /// Kinetic factor representation: kDense applies e^{-dtau K} by GEMM;
  /// kCheckerboard replays the split-bond factorization in O(bonds x cols)
  /// with the same O(dtau^2) error order as the Trotter splitting (config
  /// key `kinetic`, flag --kinetic). Trajectories stay bitwise identical
  /// across backends, thread counts and walker-batch widths within a mode;
  /// the two modes differ by the documented splitting error.
  hubbard::KineticKind kinetic = hubbard::KineticKind::kDense;
  /// Unused: measurements always run the FFT pipeline. The field stays
  /// only because benchmark/ still sets it (see MeasureKind).
  MeasureKind measure = MeasureKind::kFft;

  void validate() const;
};

struct SweepStats {
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  double acceptance() const {
    return proposed ? static_cast<double>(accepted) / static_cast<double>(proposed) : 0.0;
  }
};

class DqmcEngine {
 public:
  /// `shared_backend` (optional) makes the engine run on a backend owned by
  /// the caller instead of constructing its own — a walker crowd puts its W
  /// engines on ONE backend. The engine never submits to a shared async
  /// backend concurrently with another user: callers serialize (see
  /// WalkerBatch). Either way the engine owns its two-item chain (one item
  /// per spin) on that backend.
  DqmcEngine(const Lattice& lattice, const ModelParams& params,
             EngineConfig config, std::uint64_t seed,
             backend::ComputeBackend* shared_backend = nullptr);

  idx n() const { return factory_.n(); }
  idx slices() const { return params_.slices; }
  const ModelParams& params() const { return params_; }
  const EngineConfig& config() const { return config_; }
  const Lattice& lattice() const { return lattice_; }

  /// Randomize the field, build the boundary stacks for an up sweep,
  /// compute the initial Green's functions and configuration sign. Must be
  /// called before sweep().
  void initialize();

  /// Like initialize(), but keeps the current field and RNG state and
  /// rebuilds for a next sweep in direction `next` — used when resuming
  /// from a checkpoint (see checkpoint.h).
  void resume(SweepDirection next);

  /// Direction of the next sweep: kUp after initialize() and after a down
  /// sweep, kDown after an up sweep.
  SweepDirection direction() const { return direction_; }

  /// Called after each slice finishes its Metropolis pass; the engine's
  /// Green's functions are flushed and positioned at that slice boundary.
  using SliceHook = std::function<void(idx slice)>;

  /// One full sweep in direction(): every (slice, site) visited once, the
  /// slices in ascending order going up and descending going down. The
  /// optional hook lets callers measure on every slice (QUEST measures
  /// equal-time observables across slices, which is what gives Table I its
  /// ~18-20% measurement share).
  SweepStats sweep(const SliceHook& on_slice = nullptr);

  /// Green's function of spin `s` at the current slice boundary, with all
  /// pending corrections flushed.
  const linalg::Matrix& greens(Spin s);

  /// Sign of the current configuration weight det M+ det M-.
  int config_sign() const { return sign_; }

  /// The HS field. A caller that changes it must resume() (or
  /// recompute_greens()) before the next sweep: the stacks hold products
  /// of the field the engine last saw.
  HSField& field() { return field_; }
  const BMatrixFactory& factory() const { return factory_; }
  /// Number of clusters m = ceil(L / k); cluster c covers slices
  /// [c k, min((c + 1) k, L)).
  idx num_clusters() const { return clusters_; }
  Profiler& profiler() { return profiler_; }
  /// Stratification diagnostics merged over the two spin chains: boundary
  /// closures (evaluations) and graded pushes (steps).
  StratStats strat_stats() const;
  Rng& rng() { return rng_; }

  /// Cumulative acceptance across all sweeps so far.
  const SweepStats& lifetime_stats() const { return lifetime_; }

  /// The compute backend the hot path runs on (always present).
  backend::ComputeBackend& compute_backend() { return *backend_; }
  const backend::ComputeBackend& compute_backend() const { return *backend_; }

  /// Wrap uploads elided because G stayed resident on the backend between
  /// wraps (summed over the engine's two chain items).
  std::uint64_t wrap_uploads_skipped() const {
    return chain_->wrap_uploads_skipped(0) + chain_->wrap_uploads_skipped(1);
  }

  /// Fresh G for both spins at the boundary before cluster `cluster` (0 is
  /// tau = 0, the same G as tau = beta), for the current field: both stacks
  /// are rebuilt from scratch for the next sweep (m pushes per spin, as
  /// resume() does) and a StackWalk over their stored side reaches the
  /// boundary. The next sweep continues from the rebuilt stacks, bitwise
  /// as from carried ones.
  void recompute_greens(idx cluster = 0);

  /// Both spins' stacks ([0] = Up) holding the complete side the last
  /// sweep stored (the suffixes after a down sweep, the prefixes after an
  /// up one), for a StackWalk such as the time-displaced measurement's.
  /// Forms and pushes the last cluster's pending product first, when the
  /// next boundary has not yet: its time is billed now (clustering and
  /// stratification brackets nested in the caller's), its clustering call
  /// at that next boundary.
  std::array<const BoundaryStack*, 2> stored_stacks();

 private:
  friend class WalkerBatch;

  /// A "batch.wrap" hit that fired: raised in walker `walker`'s sweep
  /// when it reaches slice `slice` (before its wrap going up, before its
  /// site loop going down).
  struct WrapFault {
    idx slice = 0;
    idx walker = 0;
    std::exception_ptr error;
  };

  /// Hit fail point "batch.wrap" once per (slice, walker), in that order,
  /// for a sweep of `walkers` walkers over slices [0, slices), up to the
  /// first hit that fires.
  static std::optional<WrapFault> hit_wrap_failpoints(idx slices,
                                                      idx walkers);
  /// THE sweep body (see the file comment): one sweep in direction_,
  /// which it then flips. `fault` (may be null) is raised when the sweep
  /// reaches its slice, `on_slice` (may be null) follows each slice's
  /// flush. The per-sweep bookkeeping is the caller's (finish_sweep).
  SweepStats sweep_body(const WrapFault* fault, const SliceHook& on_slice);
  /// G <- B_l G B_l^{-1} for both spins at slice l (going up), or
  /// G <- B_l^{-1} G B_l (going down).
  void wrap_slice(idx slice, SweepDirection dir);
  /// Fold both spins' pending corrections in one two-item batched GEMM.
  void flush_spins();
  /// Lifetime stats, metrics and health after one sweep.
  void finish_sweep(const SweepStats& stats);

  /// The Metropolis site loop of one slice, without the trailing flush
  /// (flush_spins folds both spins in one batched GEMM).
  void metropolis_sites(idx slice, SweepStats& stats);
  /// Configuration sign from the stacks, which must be complete for the
  /// current field.
  int sign_from_scratch();

  idx cluster_begin(idx c) const { return c * config_.cluster_size; }
  idx cluster_end(idx c) const;
  /// Both spins' products of cluster c into products_ through the chain
  /// (one two-item composite), in a clustering bracket of `calls` calls on
  /// `prof` (null: none; the time is the caller's).
  void form_products(idx c, Profiler* prof, std::uint64_t calls);
  /// Push the pending product (if any) onto both stacks and close the
  /// boundary they reach: the fresh G of every cluster boundary of a sweep.
  /// With `record_drift` and an enabled obs::HealthMonitor, the distance of
  /// the wrapped G from the fresh one is reported before it is replaced.
  void boundary_greens(bool record_drift);
  /// Rebuild both stacks from scratch for a sweep in direction_.
  void rebuild_stacks();
  /// Replace both spins' G with fresh[2].
  void reset_greens(linalg::Matrix (&fresh)[2], bool record_drift);

  Lattice lattice_;
  ModelParams params_;
  EngineConfig config_;
  BMatrixFactory factory_;
  HSField field_;
  Rng rng_;
  idx clusters_;
  // When the engine runs on a caller-owned backend, owned_backend_ stays
  // null and backend_ points at the shared instance.
  std::unique_ptr<backend::ComputeBackend> owned_backend_;
  backend::ComputeBackend* backend_;
  std::unique_ptr<backend::BackendBChain> chain_;
  // Per-spin boundary stacks: the Up/Down closures run as concurrent tasks,
  // so each spin owns its stack.
  BoundaryStack stacks_[2];
  // One cluster product per spin, formed at a boundary and pushed there.
  linalg::Matrix products_[2];
  // The cluster whose product the next boundary forms and pushes (the last
  // one a sweep crossed), or -1; and the clustering calls of products
  // stored_stacks() formed, billed at the next boundary.
  idx pending_ = -1;
  std::uint64_t unbilled_ = 0;
  SweepDirection direction_ = SweepDirection::kUp;
  DelayedGreens delayed_[2];
  // DelayedGreens revision each item's resident G was downloaded at; lets
  // the wrap skip the upload when no flip touched G since the last wrap.
  std::uint64_t wrapped_revision_[2] = {~0ull, ~0ull};
  Profiler profiler_;
  SweepStats lifetime_;
  int sign_ = 1;
  bool initialized_ = false;
};

}  // namespace dqmc::core
