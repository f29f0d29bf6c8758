// Fleet payload-serialization tests: a chain partial must survive the pipe
// bit-for-bit — the coordinator's chain-order merge of deserialized
// partials IS the physics, so every accumulator, counter, and hash has to
// round-trip exactly. ShardState carries one chain's partial plus its v1
// checkpoint.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fleet/serial.h"

namespace dqmc::fleet {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig cfg;
  cfg.lx = 2;
  cfg.ly = 2;
  cfg.model.u = 4.0;
  cfg.model.beta = 1.0;
  cfg.model.slices = 8;
  cfg.engine.cluster_size = 4;
  cfg.engine.delay_rank = 4;
  cfg.warmup_sweeps = 4;
  cfg.measurement_sweeps = 8;
  cfg.bins = 4;
  cfg.seed = 17;
  return cfg;
}

/// Real committed state to serialize: run one small chain to completion.
core::SimulationResults run_one(std::uint64_t seed) {
  core::SimulationConfig cfg = small_config();
  cfg.seed = seed;
  core::SupervisorPolicy policy;
  policy.checkpoint_interval = 4;
  return core::run_supervised_simulation(cfg, policy);
}

TEST(Serial, ChainPartialRoundTripsBitwise) {
  const core::SimulationResults src = run_one(17);
  const std::string blob = serialize_chain_partial(src);

  core::SimulationResults dst(src.config);
  deserialize_chain_partial(blob, dst);

  EXPECT_EQ(dst.trajectory_hash, src.trajectory_hash);
  EXPECT_EQ(dst.sweep_stats.proposed, src.sweep_stats.proposed);
  EXPECT_EQ(dst.sweep_stats.accepted, src.sweep_stats.accepted);
  EXPECT_EQ(dst.backend_name, src.backend_name);
  EXPECT_EQ(dst.wrap_uploads_skipped, src.wrap_uploads_skipped);
  // Accumulators: estimates AND jackknife resamplings must match to the
  // last bit (bins, counts, sums all round-trip).
  EXPECT_EQ(dst.measurements.density().mean, src.measurements.density().mean);
  EXPECT_EQ(dst.measurements.density().error,
            src.measurements.density().error);
  EXPECT_EQ(dst.measurements.double_occupancy().mean,
            src.measurements.double_occupancy().mean);
  EXPECT_EQ(dst.measurements.density_jackknife().mean,
            src.measurements.density_jackknife().mean);
  EXPECT_EQ(dst.measurements.density_jackknife().error,
            src.measurements.density_jackknife().error);
  EXPECT_EQ(dst.measurements.average_sign().mean,
            src.measurements.average_sign().mean);
  EXPECT_EQ(dst.fault_report.faults, src.fault_report.faults);
  EXPECT_EQ(dst.fault_report.final_backend, src.fault_report.final_backend);
}

TEST(Serial, ReserializingTheDeserializedCopyIsIdentical) {
  const core::SimulationResults src = run_one(23);
  const std::string blob = serialize_chain_partial(src);
  core::SimulationResults dst(src.config);
  deserialize_chain_partial(blob, dst);
  // Fixed point after one round trip: the codec loses nothing it encodes.
  EXPECT_EQ(serialize_chain_partial(dst), blob);
}

TEST(Serial, SeedMismatchIsRejected) {
  const core::SimulationResults src = run_one(17);
  const std::string blob = serialize_chain_partial(src);
  core::SimulationConfig other = small_config();
  other.seed = 18;  // a different chain: merging would corrupt the fold
  core::SimulationResults dst(other);
  EXPECT_THROW(deserialize_chain_partial(blob, dst), Error);
}

TEST(Serial, GarbageBlobThrowsNotCrashes) {
  core::SimulationResults dst(small_config());
  EXPECT_THROW(deserialize_chain_partial("not a partial", dst), Error);
  EXPECT_THROW(deserialize_chain_partial("", dst), Error);
  std::string truncated = serialize_chain_partial(run_one(17));
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize_chain_partial(truncated, dst), Error);
}

TEST(Serial, ShardStateRoundTrip) {
  ShardState state;
  state.chain = 6;
  state.done = 9;
  state.checkpoint = std::string("ckpt-blob\nwith newline\0bin", 26);
  state.partial = "partial-a";

  const ShardState back = decode_shard_state(encode_shard_state(state));
  EXPECT_EQ(back.chain, state.chain);
  EXPECT_EQ(back.done, state.done);
  EXPECT_EQ(back.checkpoint, state.checkpoint);
  EXPECT_EQ(back.partial, state.partial);
}

TEST(Serial, EmptyShardStateRoundTrips) {
  const ShardState back = decode_shard_state(encode_shard_state(ShardState{}));
  EXPECT_EQ(back.chain, 0);
  EXPECT_EQ(back.done, 0);
  EXPECT_TRUE(back.checkpoint.empty());
  EXPECT_TRUE(back.partial.empty());
}

TEST(Serial, MalformedShardStateThrows) {
  EXPECT_THROW(decode_shard_state("garbage"), Error);
  EXPECT_THROW(decode_shard_state(""), Error);
}

TEST(Serial, MakeChainPartialSeedsByGlobalChainIndex) {
  const core::SimulationConfig cfg = small_config();
  const auto p0 = make_chain_partial(cfg, 0);
  const auto p5 = make_chain_partial(cfg, 5);
  EXPECT_EQ(p0->config.seed, cfg.seed);
  EXPECT_EQ(p5->config.seed, cfg.seed + 5);
}

}  // namespace
}  // namespace dqmc::fleet
