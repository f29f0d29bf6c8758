// Fleet determinism suite, the no-fault half: an N-worker fleet run must
// bitwise-match the single-process crowd path (run_supervised_parallel) —
// same trajectory-hash fold, same binned and jackknife estimates, same
// sweep counters — for any worker count and any walker_batch, on both
// backends. "Which process ran a chain" must never be observable in the
// physics. The worker half, with the test as the coordinator: a worker
// returns the bits of the chain it is assigned, and exits when its
// coordinator is gone or sends a retired frame type.
//
// Under ThreadSanitizer the gpusim cases are compiled out: a forked worker
// would create backend threads after a multi-threaded fork, which TSan's
// runtime does not support. The host-backend worker runs serially
// (par::set_thread_serial) and is exercised under every sanitizer.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "backend/backend.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fleet/coordinator.h"
#include "fleet/options.h"
#include "fleet/serial.h"
#include "fleet/wire.h"
#include "fleet/worker.h"
#include "obs/health.h"
#include "obs/metrics.h"

#if defined(__SANITIZE_THREAD__)
#define DQMC_FLEET_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DQMC_FLEET_TSAN 1
#endif
#endif

namespace dqmc::fleet {
namespace {

core::SimulationConfig small_config(
    backend::BackendKind kind = backend::BackendKind::kHost) {
  core::SimulationConfig cfg;
  cfg.lx = 2;
  cfg.ly = 2;
  cfg.model.u = 4.0;
  cfg.model.beta = 1.0;
  cfg.model.slices = 8;
  cfg.engine.cluster_size = 4;
  cfg.engine.delay_rank = 4;
  cfg.engine.backend = kind;
  cfg.warmup_sweeps = 4;
  cfg.measurement_sweeps = 8;
  cfg.bins = 4;
  cfg.seed = 31;
  cfg.walker_batch = 2;  // the single-process oracle's crowds
  return cfg;
}

core::SupervisorPolicy test_policy() {
  core::SupervisorPolicy policy;
  policy.checkpoint_interval = 3;
  policy.max_retries = 2;
  return policy;
}

FleetConfig fleet_config(idx workers) {
  FleetConfig fc;
  fc.workers = workers;
  return fc;
}

/// The full bitwise contract for an undisturbed fleet: hash fold, binned
/// estimates, jackknife estimates, and the summed sweep/strat counters all
/// equal the single-process merge.
void expect_equivalent(const FleetResult& fleet,
                       const core::SimulationResults& single) {
  EXPECT_EQ(fleet.results.trajectory_hash, single.trajectory_hash);
  const auto& fm = fleet.results.measurements;
  const auto& sm = single.measurements;
  EXPECT_EQ(fm.density().mean, sm.density().mean);
  EXPECT_EQ(fm.density().error, sm.density().error);
  EXPECT_EQ(fm.double_occupancy().mean, sm.double_occupancy().mean);
  EXPECT_EQ(fm.double_occupancy().error, sm.double_occupancy().error);
  EXPECT_EQ(fm.kinetic_energy().mean, sm.kinetic_energy().mean);
  EXPECT_EQ(fm.moment_sq().mean, sm.moment_sq().mean);
  EXPECT_EQ(fm.af_structure_factor().mean, sm.af_structure_factor().mean);
  EXPECT_EQ(fm.af_structure_factor().error, sm.af_structure_factor().error);
  EXPECT_EQ(fm.pair_s().mean, sm.pair_s().mean);
  EXPECT_EQ(fm.pair_d().mean, sm.pair_d().mean);
  EXPECT_EQ(fm.average_sign().mean, sm.average_sign().mean);
  // Satellite contract: the cross-process merge reproduces
  // merge_chains' jackknife estimates bit for bit.
  EXPECT_EQ(fm.density_jackknife().mean, sm.density_jackknife().mean);
  EXPECT_EQ(fm.density_jackknife().error, sm.density_jackknife().error);
  EXPECT_EQ(fm.double_occupancy_jackknife().mean,
            sm.double_occupancy_jackknife().mean);
  EXPECT_EQ(fm.double_occupancy_jackknife().error,
            sm.double_occupancy_jackknife().error);
  EXPECT_EQ(fm.kinetic_energy_jackknife().mean,
            sm.kinetic_energy_jackknife().mean);
  EXPECT_EQ(fm.moment_sq_jackknife().mean, sm.moment_sq_jackknife().mean);
  EXPECT_EQ(fleet.results.sweep_stats.proposed, single.sweep_stats.proposed);
  EXPECT_EQ(fleet.results.sweep_stats.accepted, single.sweep_stats.accepted);
  EXPECT_EQ(fleet.results.backend_name, single.backend_name);
}

TEST(Fleet, TwoWorkersMatchSingleProcess) {
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 6;
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet =
      run_fleet(cfg, policy, fleet_config(2), chains);
  expect_equivalent(fleet, single);
  EXPECT_EQ(fleet.fleet.worker_deaths, 0u);
  EXPECT_EQ(fleet.fleet.protocol_faults, 0u);
  ASSERT_EQ(fleet.chain_hashes.size(), static_cast<std::size_t>(chains));
}

TEST(Fleet, WorkerCountIsUnobservable) {
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 6;
  const FleetResult one = run_fleet(cfg, policy, fleet_config(1), chains);
  const FleetResult three = run_fleet(cfg, policy, fleet_config(3), chains);
  EXPECT_EQ(one.results.trajectory_hash, three.results.trajectory_hash);
  EXPECT_EQ(one.chain_hashes, three.chain_hashes);
  EXPECT_EQ(one.results.measurements.density().error,
            three.results.measurements.density().error);
}

TEST(Fleet, MoreWorkersThanShardsIsFine) {
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 3;  // 3 shards
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(4), chains);
  expect_equivalent(fleet, single);
}

TEST(Fleet, RaggedLastShardMatches) {
  // The single-process run steps crowds of 4 + 2; the fleet deals one shard
  // per chain whatever the crowd width.
  core::SimulationConfig cfg = small_config();
  cfg.walker_batch = 4;
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 6;
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), chains);
  expect_equivalent(fleet, single);
  EXPECT_EQ(fleet.fleet.chains, chains);
}

TEST(Fleet, ReportsEachChainAsACrowdOfOne) {
  // The single-process run of this config steps two crowds of two; the
  // fleet runs each of its four chains as a crowd of one.
  const FleetResult fleet =
      run_fleet(small_config(), test_policy(), fleet_config(2), 4);
  EXPECT_EQ(fleet.results.batch_walkers, 1);
  EXPECT_EQ(fleet.results.batch_crowds, 4);
}

/// Enables the process's registry and monitor for one test, zeroed, and
/// restores both switches after it.
class Observed {
 public:
  Observed()
      : metrics_on_(obs::metrics().enabled()),
        health_on_(obs::health().enabled()) {
    obs::metrics().set_enabled(true);
    obs::health().set_enabled(true);
    zero();
  }
  ~Observed() {
    zero();
    obs::metrics().set_enabled(metrics_on_);
    obs::health().set_enabled(health_on_);
  }
  static void zero() {
    obs::metrics().reset();
    obs::health().reset();
  }

 private:
  bool metrics_on_, health_on_;
};

/// The registry counters and health counts a fleet must carry home.
std::vector<std::uint64_t> observed_counts() {
  std::vector<std::uint64_t> out;
  for (const char* name : {"sweeps", "metropolis.proposed",
                           "metropolis.accepted", "strat.qr_calls",
                           "cluster.rebuilds"}) {
    const obs::Counter* c = obs::metrics().find_counter(name);
    out.push_back(c != nullptr ? c->value() : 0);
  }
  for (const char* name : {"gemm.gflops", "cluster.gflops"}) {
    const obs::Histogram* h = obs::metrics().find_histogram(name);
    out.push_back(h != nullptr ? h->count() : 0);
  }
  const obs::HealthMonitor::Summary hs = obs::health().summary();
  out.push_back(hs.wrap_drift.count);
  out.push_back(hs.sign_samples);
  return out;
}

TEST(Fleet, MergedMetricsAndHealthMatchSingleProcess) {
  // Each chain's registry and monitor travel home with its result, so the
  // coordinator's hold what one process running every chain holds.
  const Observed observed;
  const core::SimulationConfig cfg = small_config();
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, test_policy(), 4);
  const std::vector<std::uint64_t> want = observed_counts();
  Observed::zero();
  const FleetResult fleet = run_fleet(cfg, test_policy(), fleet_config(2), 4);
  const std::vector<std::uint64_t> got = observed_counts();
  EXPECT_EQ(got, want);
  EXPECT_EQ(got[0], 4u * static_cast<std::uint64_t>(cfg.warmup_sweeps +
                                                    cfg.measurement_sweeps));
  EXPECT_EQ(got[1], fleet.results.sweep_stats.proposed);
  EXPECT_GT(got.back(), 0u);
  EXPECT_EQ(fleet.results.trajectory_hash, single.trajectory_hash);
}

TEST(Fleet, WalkerBatchDoesNotChangeTheChainHashes) {
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 5;
  core::SimulationConfig cfg = small_config();
  cfg.walker_batch = 1;
  const FleetResult base = run_fleet(cfg, policy, fleet_config(2), chains);
  ASSERT_EQ(base.chain_hashes.size(), static_cast<std::size_t>(chains));
  for (const idx width : {2, 4}) {
    cfg.walker_batch = width;
    const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), chains);
    EXPECT_EQ(fleet.chain_hashes, base.chain_hashes)
        << "walker_batch " << width;
    EXPECT_EQ(fleet.results.trajectory_hash, base.results.trajectory_hash);
  }
}

TEST(Fleet, EveryWorkerRunsChainsWhateverTheWalkerBatch) {
  // walker_batch 4 must not bundle the four chains into one shard that a
  // single worker runs while the other idles. One segment per chain leaves
  // no boundary at which anything could rebalance.
  core::SimulationConfig cfg = small_config();
  cfg.lx = cfg.ly = 4;
  cfg.model.beta = 2.5;
  cfg.model.slices = 20;
  cfg.engine.cluster_size = 10;
  cfg.engine.delay_rank = 16;
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 12;
  cfg.bins = 2;
  cfg.walker_batch = 4;
  core::SupervisorPolicy policy = test_policy();
  policy.checkpoint_interval = 100;
  const idx chains = 4;
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), chains);
  EXPECT_EQ(fleet.fleet.chains, chains);
  ASSERT_EQ(fleet.fleet.worker_summaries.size(), 2u);
  for (const WorkerSummary& w : fleet.fleet.worker_summaries) {
    EXPECT_GE(w.shards_completed, 1u) << "worker " << w.index;
  }
  EXPECT_EQ(fleet.results.trajectory_hash, single.trajectory_hash);
}

TEST(FleetSteal, StolenWalkersKeepTheirBits) {
  // Named for the work stealing that once split a crowd between workers.
  // A shard is now one chain and idle workers race for the next, so which
  // worker runs a chain still varies from run to run; its bits must not.
  // Six chains (crowds of 4 + 2 in the single-process run) with a snapshot
  // at every second sweep.
  core::SimulationConfig cfg = small_config();
  cfg.warmup_sweeps = 10;
  cfg.measurement_sweeps = 30;
  cfg.bins = 5;
  cfg.seed = 71;
  cfg.walker_batch = 4;
  core::SupervisorPolicy policy = test_policy();
  policy.checkpoint_interval = 2;
  const idx chains = 6;

  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), chains);

  EXPECT_EQ(fleet.results.trajectory_hash, single.trajectory_hash);
  EXPECT_EQ(fleet.results.measurements.density().mean,
            single.measurements.density().mean);
  EXPECT_EQ(fleet.results.measurements.density().error,
            single.measurements.density().error);
  EXPECT_EQ(fleet.results.measurements.density_jackknife().error,
            single.measurements.density_jackknife().error);
  EXPECT_EQ(fleet.results.sweep_stats.proposed, single.sweep_stats.proposed);
}

TEST(Fleet, ChainHashFoldMatchesTheFlatFold) {
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), 6);
  std::uint64_t fold = 0;  // merge_chains folds from the zero hash
  for (std::uint64_t h : fleet.chain_hashes) {
    fold = core::mix_chain_hash(fold, h);
  }
  EXPECT_EQ(fold, fleet.results.trajectory_hash);
}

TEST(Fleet, PhaseCallsMatchSingleProcess) {
  // Each chain's phase profile travels in its partial: the fleet's merged
  // Table-I call counts are the single-process crowd's.
  const core::SimulationConfig cfg = small_config();
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, test_policy(), 4);
  const FleetResult fleet = run_fleet(cfg, test_policy(), fleet_config(2), 4);
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const auto phase = static_cast<Phase>(p);
    EXPECT_EQ(fleet.results.profiler.calls(phase), single.profiler.calls(phase))
        << phase_name(phase);
  }
  EXPECT_GT(fleet.results.profiler.calls(Phase::kStratification), 0u);
  EXPECT_GT(fleet.results.profiler.total_seconds(), 0.0);
}

TEST(Fleet, RejectsZeroWalkerBatch) {
  core::SimulationConfig cfg = small_config();
  cfg.walker_batch = 0;
  EXPECT_THROW(run_fleet(cfg, test_policy(), fleet_config(2), 4), Error);
}

TEST(Fleet, RejectsInvalidScheduleBeforeForking) {
  core::SimulationConfig cfg = small_config();
  cfg.measure_interval = 0;
  EXPECT_THROW(run_fleet(cfg, test_policy(), fleet_config(2), 4),
               InvalidArgument);
}

TEST(Fleet, RejectsCheckpointFilesForSeveralChains) {
  // Shards would all resume one checkpoint_in, or race on one
  // checkpoint_out; the coordinator refuses before forking.
  core::SimulationConfig in = small_config();
  in.checkpoint_in = "fleet_shared.ckpt";
  EXPECT_THROW(run_fleet(in, test_policy(), fleet_config(2), 4),
               InvalidArgument);
  core::SimulationConfig out = small_config();
  out.checkpoint_out = "fleet_shared.ckpt";
  try {
    run_fleet(out, test_policy(), fleet_config(2), 4);
    ADD_FAILURE() << "checkpoint_out accepted for 4 chains";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint_out"), std::string::npos)
        << e.what();
  }
}

/// A worker forked on two fresh pipes; the test plays its coordinator on
/// `to` (frames to the worker) and `from` (frames from it).
struct ForkedWorker {
  pid_t pid = -1;
  int to = -1;
  int from = -1;
};

ForkedWorker fork_worker(const core::SimulationConfig& cfg,
                         const core::SupervisorPolicy& policy) {
  const FleetConfig fc;
  int to_worker[2], from_worker[2];
  if (::pipe(to_worker) != 0) return {};
  if (::pipe(from_worker) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(to_worker[1]);
    ::close(from_worker[0]);
    worker_main(cfg, policy, fc, 0, to_worker[0], from_worker[1]);
  }
  ::close(to_worker[0]);
  ::close(from_worker[1]);
  return {pid, to_worker[1], from_worker[0]};
}

/// Read frames from the worker until one of type `type` arrives (returned)
/// or the pipe reaches EOF (nullopt).
std::optional<Frame> read_until(int fd, FrameType type) {
  FrameDecoder decoder;
  while (read_into(fd, decoder)) {
    while (std::optional<Frame> frame = decoder.next()) {
      if (frame->type == type) return frame;
    }
  }
  return std::nullopt;
}

/// The worker's wait status once it exits, or nullopt if it still runs
/// after 60 s (it is then killed and reaped, so no child outlives a test).
std::optional<int> reap_within_a_minute(pid_t pid) {
  int status = 0;
  pid_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped != pid) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return std::nullopt;
  }
  return status;
}

TEST(FleetWorker, OrphanedWorkerExitsAtTheNextBoundary) {
  // The test plays the coordinator: it assigns one chain with a boundary
  // after every sweep, waits for the first progress frame, then closes both
  // pipes. The chain's frames outgrow the pipe buffer, so the worker cannot
  // finish the chain first; it must notice at its next boundary and exit 1
  // (a failure reported after the chain ends would exit 2).
  core::SimulationConfig cfg = small_config();
  cfg.measurement_sweeps = 400;
  core::SupervisorPolicy policy = test_policy();
  policy.checkpoint_interval = 1;
  const ForkedWorker w = fork_worker(cfg, policy);
  ASSERT_GE(w.pid, 0);

  write_frame(w.to, FrameType::kAssign, 0, encode_shard_state(ShardState{}));
  const bool progressed = read_until(w.from, FrameType::kProgress).has_value();
  ::close(w.to);
  ::close(w.from);

  const std::optional<int> status = reap_within_a_minute(w.pid);
  ASSERT_TRUE(status) << "the orphaned worker was still running after 60 s";
  EXPECT_TRUE(progressed);
  ASSERT_TRUE(WIFEXITED(*status)) << "status " << *status;
  EXPECT_EQ(WEXITSTATUS(*status), 1);
}

TEST(FleetWorker, ResultCarriesTheAssignedChainsBits) {
  // An assignment names one chain. The worker must run it from seed
  // config.seed + chain and answer under the assignment's shard id with the
  // partial that a single-process run of that chain commits.
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chain = 3;
  core::SimulationConfig alone = cfg;
  alone.seed = cfg.seed + static_cast<std::uint64_t>(chain);
  const core::SimulationResults single =
      core::run_supervised_simulation(alone, policy);

  const ForkedWorker w = fork_worker(cfg, policy);
  ASSERT_GE(w.pid, 0);
  ShardState assignment;
  assignment.chain = chain;
  write_frame(w.to, FrameType::kAssign, 7, encode_shard_state(assignment));
  const std::optional<Frame> result = read_until(w.from, FrameType::kResult);
  write_frame(w.to, FrameType::kShutdown, 0, "");
  const std::optional<int> status = reap_within_a_minute(w.pid);
  ::close(w.to);
  ::close(w.from);

  ASSERT_TRUE(result);
  EXPECT_EQ(result->shard, 7u);
  const ShardState state = decode_shard_state(result->payload);
  EXPECT_EQ(state.chain, chain);
  EXPECT_EQ(state.done, cfg.warmup_sweeps + cfg.measurement_sweeps);
  EXPECT_TRUE(state.checkpoint.empty());
  // Nothing is observed with the registry and monitor off.
  EXPECT_TRUE(state.observability.empty());
  const std::unique_ptr<core::SimulationResults> partial =
      make_chain_partial(cfg, chain);
  deserialize_chain_partial(state.partial, *partial);
  EXPECT_EQ(partial->trajectory_hash, single.trajectory_hash);
  EXPECT_EQ(partial->measurements.density().mean,
            single.measurements.density().mean);
  EXPECT_EQ(partial->sweep_stats.accepted, single.sweep_stats.accepted);
  ASSERT_TRUE(status) << "the worker ignored kShutdown for 60 s";
  ASSERT_TRUE(WIFEXITED(*status)) << "status " << *status;
  EXPECT_EQ(WEXITSTATUS(*status), 0);
}

TEST(FleetWorker, RetiredStealFrameFromTheCoordinatorIsFatal) {
  // Frame type 5 was the coordinator's steal request. A worker must not
  // skip it as an unknown control frame: it reports the decode fault in a
  // kFail frame and exits 2.
  const ForkedWorker w = fork_worker(small_config(), test_policy());
  ASSERT_GE(w.pid, 0);
  std::string retired = encode_frame(FrameType::kShutdown, 0, "");
  retired[4] = 5;  // type LSB
  ASSERT_EQ(::write(w.to, retired.data(), retired.size()),
            static_cast<ssize_t>(retired.size()));
  const std::optional<Frame> fail = read_until(w.from, FrameType::kFail);
  const std::optional<int> status = reap_within_a_minute(w.pid);
  ::close(w.to);
  ::close(w.from);

  ASSERT_TRUE(fail);
  EXPECT_NE(fail->payload.find("unknown frame type 5"), std::string::npos)
      << fail->payload;
  ASSERT_TRUE(status) << "the worker was still running after 60 s";
  ASSERT_TRUE(WIFEXITED(*status)) << "status " << *status;
  EXPECT_EQ(WEXITSTATUS(*status), 2);
}

#if !defined(DQMC_FLEET_TSAN)
TEST(Fleet, GpusimBackendMatchesSingleProcess) {
  const core::SimulationConfig cfg =
      small_config(backend::BackendKind::kGpuSim);
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 4;
  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult fleet = run_fleet(cfg, policy, fleet_config(2), chains);
  expect_equivalent(fleet, single);
}

TEST(Fleet, BackendsAgreeOnTheHashAcrossTheFleet) {
  const core::SupervisorPolicy policy = test_policy();
  const FleetResult host =
      run_fleet(small_config(backend::BackendKind::kHost), policy,
                fleet_config(2), 4);
  const FleetResult sim =
      run_fleet(small_config(backend::BackendKind::kGpuSim), policy,
                fleet_config(2), 4);
  EXPECT_EQ(host.results.trajectory_hash, sim.results.trajectory_hash);
}
#endif  // !DQMC_FLEET_TSAN

}  // namespace
}  // namespace dqmc::fleet
