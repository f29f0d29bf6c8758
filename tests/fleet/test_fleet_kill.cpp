// The kill-a-worker determinism suite: SIGKILL (or wedge, or corrupt the
// pipe of) one worker mid-sweep at a deterministic fail-point tick, and the
// fleet must finish with EVERY per-chain trajectory hash — survivors and
// recovered chains alike — bitwise-equal to an undisturbed fleet run and to
// the single-process crowd baseline at the same seeds. A dead process never
// forks a surviving trajectory.
//
// gpusim cases are compiled out under ThreadSanitizer (threads after a
// multi-threaded fork are unsupported there); the host matrix runs under
// every sanitizer.
#include <gtest/gtest.h>

#include "backend/backend.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fault/failpoint.h"
#include "fleet/coordinator.h"
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
  cfg.seed = 47;
  cfg.walker_batch = 2;
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

/// The disturbed run must be indistinguishable in the physics: same hash
/// fold, same per-chain hashes (survivors untouched, recovered chains
/// bit-replayed), same committed estimates and sweep counters.
void expect_same_physics(const FleetResult& disturbed,
                         const FleetResult& undisturbed) {
  EXPECT_EQ(disturbed.results.trajectory_hash,
            undisturbed.results.trajectory_hash);
  EXPECT_EQ(disturbed.chain_hashes, undisturbed.chain_hashes);
  const auto& dm = disturbed.results.measurements;
  const auto& um = undisturbed.results.measurements;
  EXPECT_EQ(dm.density().mean, um.density().mean);
  EXPECT_EQ(dm.density().error, um.density().error);
  EXPECT_EQ(dm.double_occupancy().mean, um.double_occupancy().mean);
  EXPECT_EQ(dm.af_structure_factor().mean, um.af_structure_factor().mean);
  EXPECT_EQ(dm.average_sign().mean, um.average_sign().mean);
  EXPECT_EQ(dm.density_jackknife().error, um.density_jackknife().error);
  EXPECT_EQ(disturbed.results.sweep_stats.proposed,
            undisturbed.results.sweep_stats.proposed);
  EXPECT_EQ(disturbed.results.sweep_stats.accepted,
            undisturbed.results.sweep_stats.accepted);
}

class FleetKillTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::failpoints().disarm_all(); }
  void TearDown() override { fault::failpoints().disarm_all(); }
};

void run_kill_matrix(backend::BackendKind kind, idx workers, int victim,
                     int tick) {
  const core::SimulationConfig cfg = small_config(kind);
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 6;

  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);
  const FleetResult undisturbed =
      run_fleet(cfg, policy, fleet_config(workers), chains);
  EXPECT_EQ(undisturbed.results.trajectory_hash, single.trajectory_hash);

  FleetConfig kill = fleet_config(workers);
  kill.worker_failpoints =
      "fleet.worker.kill:" + std::to_string(tick);
  kill.failpoint_worker = victim;
  const FleetResult disturbed = run_fleet(cfg, policy, kill, chains);

  EXPECT_EQ(disturbed.fleet.worker_deaths, 1u);
  EXPECT_EQ(disturbed.fleet.reassignments, 1u);
  expect_same_physics(disturbed, undisturbed);
  EXPECT_EQ(disturbed.results.trajectory_hash, single.trajectory_hash);
}

TEST_F(FleetKillTest, HostTwoWorkersKillWorkerZero) {
  run_kill_matrix(backend::BackendKind::kHost, 2, 0, 10);
}

TEST_F(FleetKillTest, DeathMetricMatchesTheReport) {
  // fleet.worker_deaths mirrors the report: one death counts once.
  obs::MetricsRegistry& registry = obs::metrics();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  registry.reset();
  FleetConfig kill = fleet_config(2);
  kill.worker_failpoints = "fleet.worker.kill:10";
  kill.failpoint_worker = 0;
  const FleetResult disturbed =
      run_fleet(small_config(backend::BackendKind::kHost), test_policy(),
                kill, 6);
  const obs::Counter* deaths = registry.find_counter("fleet.worker_deaths");
  registry.set_enabled(was_enabled);
  EXPECT_EQ(disturbed.fleet.worker_deaths, 1u);
  ASSERT_NE(deaths, nullptr);
  EXPECT_EQ(deaths->value(), disturbed.fleet.worker_deaths);
}

TEST_F(FleetKillTest, ReassignedChainKeepsItsPhaseProfile) {
  // Worker 0 dies at sweep 8 of its first chain, after the snapshot at 6:
  // the survivor resumes the chain from it, and the merged profile still
  // bills every sweep once. Delayed-update calls follow the trajectory
  // alone; the resume rebuilds its stacks, so stratification and
  // clustering bill at least as many calls as undisturbed. The chain's
  // metrics resume from the snapshot too: the merged registry counts every
  // sweep and proposal once.
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  obs::MetricsRegistry& registry = obs::metrics();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const auto counted = [&registry](const FleetResult& run) {
    const obs::Counter* proposed = registry.find_counter("metropolis.proposed");
    const obs::Counter* sweeps = registry.find_counter("sweeps");
    ASSERT_NE(proposed, nullptr);
    ASSERT_NE(sweeps, nullptr);
    EXPECT_EQ(proposed->value(), run.results.sweep_stats.proposed);
    EXPECT_EQ(sweeps->value(), 4u * 12u);  // chains x (warmup + sweeps)
  };
  registry.reset();
  const FleetResult undisturbed = run_fleet(cfg, policy, fleet_config(2), 4);
  counted(undisturbed);
  FleetConfig kill = fleet_config(2);
  kill.worker_failpoints = "fleet.worker.kill:8";
  kill.failpoint_worker = 0;
  registry.reset();
  const FleetResult disturbed = run_fleet(cfg, policy, kill, 4);
  counted(disturbed);
  registry.reset();
  registry.set_enabled(was_enabled);
  ASSERT_EQ(disturbed.fleet.worker_deaths, 1u);
  ASSERT_EQ(disturbed.results.trajectory_hash,
            undisturbed.results.trajectory_hash);
  const Profiler& got = disturbed.results.profiler;
  const Profiler& want = undisturbed.results.profiler;
  EXPECT_EQ(got.calls(Phase::kDelayedUpdate), want.calls(Phase::kDelayedUpdate));
  EXPECT_EQ(got.calls(Phase::kWrapping), want.calls(Phase::kWrapping));
  EXPECT_GE(got.calls(Phase::kStratification),
            want.calls(Phase::kStratification));
  EXPECT_GE(got.calls(Phase::kClustering), want.calls(Phase::kClustering));
}

TEST_F(FleetKillTest, HostTwoWorkersKillWorkerOne) {
  run_kill_matrix(backend::BackendKind::kHost, 2, 1, 7);
}

TEST_F(FleetKillTest, HostThreeWorkers) {
  // Tick 7 is sweep 7 of worker 1's first chain: a later tick could fall
  // after its last chain, since idle workers race for the rest.
  run_kill_matrix(backend::BackendKind::kHost, 3, 1, 7);
}

TEST_F(FleetKillTest, EarlyKillBeforeAnySnapshotReplaysFromScratch) {
  // Tick 1 dies on the very first walker-sweep: no snapshot has arrived,
  // so the shard restarts from sweep zero on a survivor — same bits.
  run_kill_matrix(backend::BackendKind::kHost, 2, 0, 1);
}

TEST_F(FleetKillTest, WedgedWorkerIsKilledAndReassigned) {
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 4;
  const FleetResult undisturbed =
      run_fleet(cfg, policy, fleet_config(2), chains);

  FleetConfig wedge = fleet_config(2);
  wedge.worker_failpoints = "fleet.worker.wedge:9";
  wedge.failpoint_worker = 0;
  wedge.wedge_timeout_ms = 300;
  const FleetResult disturbed = run_fleet(cfg, policy, wedge, chains);

  EXPECT_EQ(disturbed.fleet.worker_deaths, 1u);
  expect_same_physics(disturbed, undisturbed);
  bool saw_wedge_event = false;
  for (const auto& ev : disturbed.fleet.events) {
    if (ev.site == "fleet.worker.wedged") saw_wedge_event = true;
  }
  EXPECT_TRUE(saw_wedge_event);
}

TEST_F(FleetKillTest, WorkerSendFaultRecoversThroughTheLadder) {
  // "fleet.io.send" fires inside the worker's boundary hook, within the
  // crowd supervisor's try block: the per-worker fault ladder classifies
  // the io fault and replays the segment — the process never dies.
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 4;
  const FleetResult undisturbed =
      run_fleet(cfg, policy, fleet_config(2), chains);

  FleetConfig faulty = fleet_config(2);
  faulty.worker_failpoints = "fleet.io.send:3";
  faulty.failpoint_worker = 0;
  const FleetResult disturbed = run_fleet(cfg, policy, faulty, chains);

  EXPECT_EQ(disturbed.fleet.worker_deaths, 0u);
  EXPECT_EQ(disturbed.results.trajectory_hash,
            undisturbed.results.trajectory_hash);
  EXPECT_EQ(disturbed.chain_hashes, undisturbed.chain_hashes);
  // The ladder recorded the classified io fault in the merged report.
  EXPECT_GE(disturbed.results.fault_report.faults, 1u);
  bool saw_io = false;
  for (const auto& ev : disturbed.results.fault_report.events) {
    if (ev.site == "fleet.io.send" && ev.fault_class == "io") saw_io = true;
  }
  EXPECT_TRUE(saw_io);
}

TEST_F(FleetKillTest, CoordinatorRecvFaultDisposesThePeerAndRecovers) {
  // Coordinator-side torture: an injected fault at the read site classifies
  // exactly like malformed traffic — the peer is disposed of (killed +
  // reaped), its shard reassigned, and the physics is unchanged.
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  const idx chains = 4;
  const FleetResult undisturbed =
      run_fleet(cfg, policy, fleet_config(2), chains);

  obs::MetricsRegistry& registry = obs::metrics();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  registry.reset();
  fault::failpoints().arm_spec("fleet.io.recv:4");
  const FleetResult disturbed = run_fleet(cfg, policy, fleet_config(2), chains);
  fault::failpoints().disarm_all();
  const obs::Counter* faults = registry.find_counter("fleet.protocol_faults");
  const std::uint64_t counted = faults != nullptr ? faults->value() : 0;
  registry.reset();
  registry.set_enabled(was_enabled);

  EXPECT_EQ(disturbed.fleet.protocol_faults, 1u);
  EXPECT_EQ(counted, 1u);  // the metric mirrors the report: once
  EXPECT_EQ(disturbed.fleet.worker_deaths, 1u);
  expect_same_physics(disturbed, undisturbed);
  bool saw_io_event = false;
  for (const auto& ev : disturbed.fleet.events) {
    if (ev.fault_class == "io") saw_io_event = true;
  }
  EXPECT_TRUE(saw_io_event);
}

TEST_F(FleetKillTest, ShardThatKillsEveryHostAborts) {
  // Both workers armed (failpoint_worker = -1): the shard keeps murdering
  // its hosts until max_reassigns trips and the run aborts loudly instead
  // of spinning forever.
  const core::SimulationConfig cfg = small_config();
  const core::SupervisorPolicy policy = test_policy();
  FleetConfig kill = fleet_config(2);
  kill.worker_failpoints = "fleet.worker.kill:1+";
  kill.failpoint_worker = -1;
  kill.max_reassigns = 1;
  EXPECT_THROW(run_fleet(cfg, policy, kill, 4), Error);
}

#if !defined(DQMC_FLEET_TSAN)
TEST_F(FleetKillTest, GpusimTwoWorkersKill) {
  run_kill_matrix(backend::BackendKind::kGpuSim, 2, 0, 10);
}

TEST_F(FleetKillTest, GpusimThreeWorkersKill) {
  run_kill_matrix(backend::BackendKind::kGpuSim, 3, 1, 7);
}
#endif  // !DQMC_FLEET_TSAN

}  // namespace
}  // namespace dqmc::fleet
