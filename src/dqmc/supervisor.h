// Walker supervisor: runs a simulation as a sequence of checkpointed
// segments and recovers from faults without forking the trajectory.
//
// The chain advances `checkpoint_interval` sweeps at a time. Each segment
// measures into transactional scratch accumulators that are committed only
// when the segment completes — so a replayed segment contributes exactly
// once — and ends with an in-memory checkpoint of the Markov state.
// When a segment throws, the fault is classified (fault::FaultClass) and
// recovered:
//   * device / numerical / health  -> deterministic exponential backoff,
//     rebuild the engine, restore the last checkpoint, replay the segment
//     (bitwise identical to an undisturbed run, since the checkpoint is
//     bit-exact and sweeps are deterministic);
//   * device faults that exhaust max_retries on the gpusim backend ->
//     graceful degradation: the rebuilt engine uses the host backend and
//     continues from the same checkpoint (bitwise safe by backend parity);
//   * health-monitor trips that exhaust max_retries -> the supervisor
//     stops trip-checking and continues (degraded monitoring, recorded);
//   * checkpoint I/O errors -> retry once, then skip (the previous
//     checkpoint stays the recovery point), committing the segment.
// Anything still failing after that aborts with the original exception.
//
// Every decision lands in SimulationResults::fault_report (and the run
// manifest's "fault" section); recovery counters also flow into the
// metrics registry as fault.recovery.*.
#pragma once

#include "dqmc/simulation.h"

namespace dqmc::core {

struct SupervisorPolicy {
  /// Sweeps per segment (= recovery granularity). <= 0 disables segmenting:
  /// the whole run is one segment with a checkpoint only at the end.
  idx checkpoint_interval = 25;
  /// Replay attempts per segment before escalating (degrade or abort).
  int max_retries = 3;
  /// Deterministic exponential backoff: base * 2^(attempt-1), capped.
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 1000.0;
  /// Actually sleep the backoff (tests keep the schedule but not the wait).
  bool sleep_on_backoff = false;
  /// Permit gpusim -> host degradation after max_retries device faults.
  bool allow_degrade = true;
  /// Treat health-monitor violation increases as faults (restart the
  /// segment; after max_retries, disable the gate and continue). Off by
  /// default: the monitor's thresholds are warn-level — wrap drift above
  /// 1e-6 is expected at production beta — so tripping on them is a
  /// deliberate, test/operator-level choice. The "supervisor.health" fail
  /// point fires regardless of this flag (so injection coverage does not
  /// depend on it) but is silenced by a "disable-health" recovery, exactly
  /// like real trips.
  bool trip_on_health = false;

  void validate() const;
};

/// Run one supervised chain: a CrowdSupervisor (crowd_supervisor.h) over a
/// crowd of one. run_simulation is this call with the default policy.
/// Deterministic for a fixed config: the committed trajectory,
/// measurements, and trajectory_hash match a fault-free run of the same
/// config under any policy, even when faults are injected and recovered
/// (degradation included, by backend parity).
SimulationResults run_supervised_simulation(const SimulationConfig& config,
                                            const SupervisorPolicy& policy,
                                            const ProgressFn& progress =
                                                nullptr);

/// `chains` independent supervised chains (seeds config.seed + c) in
/// crowds of up to walker_batch, run side by side (each crowd on
/// its own backend), then merge_chains in chain order with their fault
/// reports folded together. run_parallel_simulation is this call with the
/// default policy. `progress` (when set) receives one
/// call per completed chain-sweep unit — a crowd of W walkers reports W
/// units per crowd sweep — and MUST be thread-safe: crowds invoke it
/// concurrently from worker threads.
SimulationResults run_supervised_parallel(const SimulationConfig& config,
                                          const SupervisorPolicy& policy,
                                          idx chains,
                                          const ProgressFn& progress =
                                              nullptr);

}  // namespace dqmc::core
