// Fleet coordinator: shards a multi-chain run over forked worker processes
// and merges the results bit-for-bit with the single-process crowd path.
//
// Topology: one coordinator, FleetConfig::workers forked children, two
// pipes per child, poll(2) multiplexing — no MPI, no threads in the
// coordinator. A shard is one chain, dealt to the next idle worker in chain
// order; per-chain seeds are config.seed + chain, so WHICH worker runs a
// chain never changes WHAT it computes. walker_batch groups chains only
// inside one process: the fleet ignores it.
//
// Failure semantics (docs/FLEET.md has the full state machine):
//   * a dead worker (EOF + waitpid classification) or a protocol fault
//     (malformed frame) or a wedged worker (silence past wedge_timeout_ms)
//     costs its process; the chain it owned is reassigned to a survivor
//     from its latest snapshot — or replayed from scratch — both
//     bitwise-identical outcomes, so a killed worker NEVER forks surviving
//     trajectories;
//   * a shard that exceeds max_reassigns, or a worker reporting a terminal
//     supervisor abort (kFail), aborts the run; the coordinator then
//     SIGKILLs and reaps every worker still alive.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dqmc/supervisor.h"
#include "fault/report.h"
#include "fleet/options.h"
#include "obs/json.h"

namespace dqmc::fleet {

using core::ProgressFn;
using core::SimulationConfig;
using core::SimulationResults;
using core::SupervisorPolicy;

/// Per-worker lifecycle record for the fleet report.
struct WorkerSummary {
  int index = 0;
  long pid = 0;
  std::uint64_t shards_completed = 0;
  std::uint64_t frames_received = 0;
  /// "completed" | "killed (signal N)" | "exit (code N)" | "wedged" |
  /// "protocol-fault".
  std::string fate;
  /// The worker's unique crash-dump path (empty when dumps are off).
  std::string crash_dump_path;
};

/// What the fleet did, beyond the physics: lands in the manifest's "fleet"
/// section and mirrors the fleet.* metrics counters.
struct FleetReport {
  idx workers = 0;
  idx chains = 0;  ///< shards dealt: one per chain
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t snapshots = 0;
  /// Always 0: work stealing is deleted. Kept only because the wall-clock
  /// benchmark still prints it; it goes with that benchmark's refresh.
  std::uint64_t steals = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t reassignments = 0;
  std::uint64_t protocol_faults = 0;
  /// Worker-death / protocol / wedge events, in the fault taxonomy.
  std::vector<fault::FaultEvent> events;
  std::vector<WorkerSummary> worker_summaries;

  obs::Json json_value() const;
};

struct FleetResult {
  SimulationResults results;  ///< merged exactly like run_supervised_parallel
  FleetReport fleet;
  /// Per-chain trajectory hashes in chain order (the flat fold of these is
  /// results.trajectory_hash) — what the kill-a-worker suite uses to show
  /// surviving chains were untouched.
  std::vector<std::uint64_t> chain_hashes;

  explicit FleetResult(SimulationResults merged)
      : results(std::move(merged)) {}
};

/// Run `chains` chains sharded over a fleet of forked workers, one chain per
/// shard. Deterministic for a fixed config: the merged measurements, sweep
/// stats, and chain-order trajectory-hash fold bitwise-match
/// run_supervised_parallel with the same config — with any worker count,
/// any walker_batch, and across worker deaths.
/// `progress` is invoked in the coordinator process from the workers'
/// boundary progress frames (so in segment-sized bursts, not per sweep).
/// Before it returns, each chain's metrics and health, as its worker
/// observed them, fold into this process's registry and monitor in chain
/// order; a fleet result reports each chain as a crowd of one.
FleetResult run_fleet(const SimulationConfig& config,
                      const SupervisorPolicy& policy, const FleetConfig& fleet,
                      idx chains, const ProgressFn& progress = nullptr);

}  // namespace dqmc::fleet
