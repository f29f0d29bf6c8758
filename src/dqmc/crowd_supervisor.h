// The run loop of every run: ONE walker crowd — chains [first, first + W)
// of a run — advanced through a WalkerBatch in checkpointed segments (see
// supervisor.h for the recovery ladder this applies crowd-wide). A solo
// chain is the crowd of one; run_simulation and run_parallel_simulation
// drive it with the default SupervisorPolicy.
//
// Out-of-process runtimes (the fleet coordinator/worker in src/fleet/)
// drive this SAME loop the single-process runs use — one code path is what
// makes the fleet's bitwise-equivalence contract provable rather than
// aspirational. A fleet shard is one chain, run as a crowd of one. For the
// fleet it has two hooks:
//   * set_resume(): start from per-walker checkpoints + committed-sweep
//     count instead of initialize() — how a shard moves between processes;
//   * a boundary hook fired after every committed segment — the fleet
//     worker reports progress and ships resume snapshots there.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "dqmc/walker_batch.h"

namespace dqmc::core {

namespace detail {

/// The measurement half of the supervisor's segment: one workspace per
/// walker, plus the (sample, sign) lists a segment's measurement sweeps
/// fill until the supervisor commits them (or discards them for a replay).
class CrowdMeasurements {
 public:
  CrowdMeasurements(const SimulationConfig& config, idx walkers);

  /// Measurement sweep `m` (counted from the first measurement sweep) of
  /// every walker: equal-time samples at the configured slices or at sweep
  /// end, then a dynamic sample when one is due. Returns per-walker stats.
  std::vector<SweepStats> sweep(WalkerBatch& batch, idx m);
  /// Add walker w's pending samples to `results` in the order they were
  /// taken, and drop them.
  void commit(idx w, SimulationResults& results);
  /// Drop every pending sample (a replayed segment measures again).
  void discard();

 private:
  const SimulationConfig& config_;
  Lattice lattice_;
  /// Slice hooks measure different walkers concurrently, and a workspace
  /// is single-threaded.
  std::vector<std::unique_ptr<MeasurementWorkspace>> workspaces_;
  std::vector<std::vector<std::pair<EqualTimeSample, int>>> equal_time_;
  std::vector<std::vector<std::pair<DynamicSample, int>>> dynamic_;
};

}  // namespace detail

/// Segment-boundary report passed to the boundary hook.
struct CrowdBoundary {
  idx done = 0;   ///< sweeps committed so far
  idx total = 0;  ///< warmup + measurement sweeps
};

/// Called between segments, after commit. A throw is a fault of the
/// segment: the recovery ladder replays it like any other.
using CrowdBoundaryFn = std::function<void(const CrowdBoundary&)>;

/// One supervised crowd. The recovery ladder is crowd-wide: any
/// fault restores ALL walkers from their lockstep in-memory checkpoints and
/// replays the segment — restores and sweeps are bitwise, so a faulting
/// walker's recovery leaves its batchmates' trajectories untouched. Device
/// faults that exhaust max_retries degrade the whole crowd gpusim -> host;
/// health-trip exhaustion disables the gate crowd-wide; a checkpoint I/O
/// failure skips the WHOLE crowd's checkpoint so the recovery points stay
/// lockstep. Fault accounting lands on the crowd's first chain's report
/// (sum-correct after the merge).
class CrowdSupervisor {
 public:
  /// Runs chains [first, first + walkers). Results land in
  /// partials[partials_offset + w], which are (re)constructed by this
  /// ctor with the chain's own seed (config.seed + first + w). The
  /// single-process runs pass partials_offset == first; the fleet worker
  /// passes 0 (its partials vector covers only its own shard).
  CrowdSupervisor(const SimulationConfig& config,
                  const SupervisorPolicy& policy, idx first, idx walkers,
                  const ProgressFn& progress, ChainPartials& partials,
                  idx partials_offset);

  /// Start from per-walker checkpoints captured at sweep boundary `done`
  /// instead of initialize(): the crowd resumes as if it had committed
  /// `done` sweeps already. The caller is responsible for priming the
  /// partials with the samples committed before the handoff (their
  /// accumulators travel separately — see fleet/serial.h). Must be called
  /// before run().
  void set_resume(std::vector<std::string> checkpoints, idx done);

  /// Fire `hook` after every committed segment. Must be set before run().
  void set_boundary_hook(CrowdBoundaryFn hook) { boundary_ = std::move(hook); }

  /// Run to completion (or throw after the recovery ladder gives up).
  void run();

  idx done() const { return done_; }
  idx total_sweeps() const {
    return config_.warmup_sweeps + config_.measurement_sweeps;
  }
  /// Sweep boundary the current recovery checkpoints capture.
  idx checkpoint_sweep() const { return ckpt_sweep_; }
  /// Per-walker checkpoints at checkpoint_sweep() (empty before the
  /// first boundary).
  const std::vector<std::string>& checkpoints() const { return ckpts_; }
  /// Walker w's phase profile so far: its engine's, which covers this
  /// crowd's work only (a resumed chain's earlier profile travels in its
  /// partial). Valid while run() is on.
  const Profiler& engine_profile(idx w) {
    return batch_->engine(w).profiler();
  }

 private:
  std::size_t index(idx w) const {
    return static_cast<std::size_t>(offset_ + w);
  }
  std::uint64_t seed(idx w) const {
    return config_.seed + static_cast<std::uint64_t>(first_ + w);
  }
  fault::FaultReport& report() { return partials_[index(0)]->fault_report; }
  /// The crowd id stamped on this crowd's events and crash dumps.
  std::int32_t crowd_id() const {
    return static_cast<std::int32_t>(first_ / config_.walker_batch);
  }

  std::unique_ptr<WalkerBatch> make_batch() const;
  void start_batch();
  /// Read and check checkpoint_in once, before the first segment and
  /// outside the recovery ladder: a missing or malformed file is an input
  /// error (InputError naming the path), not a fault to retry. Every start
  /// and restore then loads the text held in checkpoint_in_.
  void read_checkpoint_in();
  void initialize_batch();
  void restore();
  void load_all_from_ckpts();
  /// Take the recovery decision for a fault; `walker` is the faulting
  /// chain, or -1 for a crowd-level fault.
  bool recover(const std::string& site, fault::FaultClass cls,
               const std::string& what, int attempt, std::int32_t walker);
  void run_segment(idx g_begin, idx g_end);
  void add_stats(const std::vector<SweepStats>& stats);
  void check_health();
  /// Run `save`; on failure retry once, then give up, recording
  /// `give_up` as the action. Every failure is a checkpoint fault. Returns
  /// whether a save succeeded.
  bool save_retrying(idx sweep, const std::function<void()>& save,
                     const char* give_up);
  void take_checkpoints(idx sweep);
  void commit(idx seg_end);
  void discard_scratch();
  void finish();

  const SimulationConfig& config_;
  const SupervisorPolicy& policy_;
  const ProgressFn& progress_;
  idx first_;
  idx walkers_;
  idx offset_;  ///< partials_[offset_ + w] holds chain first_ + w
  ChainPartials& partials_;
  Lattice lattice_;
  backend::BackendKind backend_;
  std::unique_ptr<WalkerBatch> batch_;
  idx done_ = 0;
  idx ckpt_sweep_ = 0;
  std::vector<std::string> ckpts_;  ///< per-walker ckpts at ckpt_sweep_
  bool resume_ = false;  ///< start_batch loads ckpts_ instead of initialize
  std::string checkpoint_in_;  ///< checkpoint_in's text (empty: none)
  CrowdBoundaryFn boundary_;
  /// The segment's samples, committed only when the segment completes.
  detail::CrowdMeasurements measurements_;
  std::vector<SweepStats> scratch_stats_;
  bool check_health_ = true;
  std::uint64_t health_baseline_ = 0;
};

}  // namespace dqmc::core
