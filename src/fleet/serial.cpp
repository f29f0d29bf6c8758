#include "fleet/serial.h"

#include <sstream>

#include "common/error.h"
#include "common/hexio.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace dqmc::fleet {

namespace hx = dqmc::hexio;

std::string serialize_chain_partial(const SimulationResults& r) {
  std::ostringstream out;
  out << "chain-partial\n";
  hx::put_hex_u64(out, r.config.seed);
  hx::put_hex_u64(out, r.trajectory_hash);
  hx::put_u64(out, r.sweep_stats.proposed);
  hx::put_u64(out, r.sweep_stats.accepted);
  hx::put_u64(out, r.strat_stats.evaluations);
  hx::put_u64(out, r.strat_stats.steps);
  hx::put_u64(out, r.strat_stats.pivot_displacement);
  hx::put_double(out, r.backend_stats.compute_seconds);
  hx::put_double(out, r.backend_stats.transfer_seconds);
  hx::put_double(out, r.backend_stats.bytes_h2d);
  hx::put_double(out, r.backend_stats.bytes_d2h);
  hx::put_u64(out, r.backend_stats.kernel_launches);
  hx::put_u64(out, r.backend_stats.transfers);
  hx::put_double(out, r.backend_stats.exposed_wait_seconds);
  hx::put_u64(out, r.backend_stats.synchronizations);
  hx::put_u64(out, r.wrap_uploads_skipped);
  hx::put_double(out, r.elapsed_seconds);
  hx::put_block(out, r.backend_name);
  r.profiler.save(out);
  r.measurements.save(out);
  r.dynamic.save(out);
  r.fault_report.save(out);
  return out.str();
}

void deserialize_chain_partial(const std::string& blob, SimulationResults& r) {
  std::istringstream in(blob);
  hx::expect(in, "chain-partial");
  const std::uint64_t seed = hx::get_hex_u64(in);
  DQMC_CHECK_MSG(seed == r.config.seed,
                 "chain partial is for a different chain (seed mismatch)");
  r.trajectory_hash = hx::get_hex_u64(in);
  r.sweep_stats.proposed = hx::get_u64(in);
  r.sweep_stats.accepted = hx::get_u64(in);
  r.strat_stats.evaluations = hx::get_u64(in);
  r.strat_stats.steps = hx::get_u64(in);
  r.strat_stats.pivot_displacement = hx::get_u64(in);
  r.backend_stats.compute_seconds = hx::get_double(in);
  r.backend_stats.transfer_seconds = hx::get_double(in);
  r.backend_stats.bytes_h2d = hx::get_double(in);
  r.backend_stats.bytes_d2h = hx::get_double(in);
  r.backend_stats.kernel_launches = hx::get_u64(in);
  r.backend_stats.transfers = hx::get_u64(in);
  r.backend_stats.exposed_wait_seconds = hx::get_double(in);
  r.backend_stats.synchronizations = hx::get_u64(in);
  r.wrap_uploads_skipped = hx::get_u64(in);
  r.elapsed_seconds = hx::get_double(in);
  r.backend_name = hx::get_block(in);
  r.profiler.load(in);
  r.measurements.load(in);
  r.dynamic.load(in);
  r.fault_report.load(in);
}

std::string encode_shard_state(const ShardState& state) {
  std::ostringstream out;
  out << "shard-state\n";
  hx::put_u64(out, static_cast<std::uint64_t>(state.chain));
  hx::put_u64(out, static_cast<std::uint64_t>(state.done));
  hx::put_block(out, state.checkpoint);
  hx::put_block(out, state.partial);
  hx::put_block(out, state.observability);
  return out.str();
}

ShardState decode_shard_state(const std::string& payload) {
  std::istringstream in(payload);
  hx::expect(in, "shard-state");
  ShardState state;
  state.chain = static_cast<idx>(hx::get_u64(in));
  state.done = static_cast<idx>(hx::get_u64(in));
  state.checkpoint = hx::get_block(in);
  state.partial = hx::get_block(in);
  state.observability = hx::get_block(in);
  return state;
}

std::string save_observability() {
  if (!obs::metrics().enabled() && !obs::health().enabled()) return "";
  std::ostringstream out;
  out << "observability\n";
  obs::metrics().save(out);
  obs::health().save(out);
  return out.str();
}

void merge_observability(const std::string& block) {
  if (block.empty()) return;
  std::istringstream in(block);
  hx::expect(in, "observability");
  obs::metrics().merge(in);
  obs::health().merge(in);
}

std::unique_ptr<SimulationResults> make_chain_partial(
    const SimulationConfig& config, idx chain) {
  SimulationConfig chain_cfg = config;
  chain_cfg.seed = config.seed + static_cast<std::uint64_t>(chain);
  return std::make_unique<SimulationResults>(chain_cfg);
}

}  // namespace dqmc::fleet
