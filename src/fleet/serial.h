// Fleet payload serialization: what crosses the coordinator <-> worker
// pipes inside wire.h frames.
//
// Two shapes carry the science:
//   * a chain partial — one chain's committed accumulator state
//     (measurements, dynamic, sweep/strat/backend stats, phase profile,
//     fault report, trajectory hash), bit-exact via hexio so the coordinator's
//     merge_chains — the single-process merge — folds it to the last bit;
//   * a ShardState — one chain's resume point: its checkpoint at a
//     segment boundary plus the partial committed before it and the
//     worker's metrics and health up to it (the observability block). The
//     same shape serves assignment (fresh: no checkpoint, no partial, no
//     block), snapshot (periodic resume insurance) and result (done ==
//     total, no checkpoint) — one codec, three frame types.
// Both sides already share the SimulationConfig by fork inheritance, so
// payloads carry only per-chain state, never the run configuration.
#pragma once

#include <memory>
#include <string>

#include "dqmc/simulation.h"

namespace dqmc::fleet {

using core::SimulationConfig;
using core::SimulationResults;
using core::idx;

/// One chain's committed results, bit-exact. The destination of
/// deserialize_chain_partial must be constructed with the chain's own
/// config (same lattice, bins, slices, seed) — shape mismatches throw.
std::string serialize_chain_partial(const SimulationResults& r);
void deserialize_chain_partial(const std::string& blob, SimulationResults& r);

/// A shard's position in the run, sufficient to continue it elsewhere. A
/// shard is one chain.
struct ShardState {
  idx chain = 0;  ///< global index of the shard's chain
  idx done = 0;   ///< sweeps committed at the boundary
  /// checkpoint at `done` (empty = start fresh / result).
  std::string checkpoint;
  /// Serialized partial (empty on a fresh assignment).
  std::string partial;
  /// save_observability() of the worker that ran the chain this far
  /// (empty on a fresh assignment, or when nothing is observed).
  std::string observability;
};

std::string encode_shard_state(const ShardState& state);
/// Throws dqmc::Error (or FleetProtocolError via hexio) on malformed input;
/// never trusts counts without bounds checks.
ShardState decode_shard_state(const std::string& payload);

/// This process's metrics registry and health monitor as one block (hexio),
/// empty when both are disabled.
std::string save_observability();
/// Fold a save_observability() block into this process's registry and
/// monitor (MetricsRegistry::merge, HealthMonitor::merge); an empty block
/// changes nothing.
void merge_observability(const std::string& block);

/// Construct the partials slot for global chain `chain` the way every
/// runner (single-process and fleet alike) seeds it: config.seed + chain.
std::unique_ptr<SimulationResults> make_chain_partial(
    const SimulationConfig& config, idx chain);

}  // namespace dqmc::fleet
