// Crash-dump forensics end to end: failpoint-killed supervised runs must
// leave a parseable crash_dump.json naming the tripped site, the recovery
// decision the supervisor took, and the crowd that faulted. The dump is
// written from the supervisor's fault-classification path, so no process
// death is needed to exercise it; tests/fault covers the recovery physics,
// this suite covers the artifact.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>

#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fault/failpoint.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace dqmc {
namespace {

using linalg::idx;

core::SimulationConfig small_config(backend::BackendKind kind,
                                    idx walker_batch) {
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
  cfg.walker_batch = walker_batch;
  return cfg;
}

core::SupervisorPolicy test_policy(int max_retries = 2) {
  core::SupervisorPolicy policy;
  policy.checkpoint_interval = 3;
  policy.max_retries = max_retries;
  return policy;
}

/// First event in the dump's tail matching kind (+ site when non-empty);
/// nullptr when absent.
const obs::Json* find_event(const obs::Json& dump, const std::string& kind,
                            const std::string& site = "") {
  const obs::Json& events = dump.at("events");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("kind").str() != kind) continue;
    if (!site.empty() && events[i].at("site").str() != site) continue;
    return &events[i];
  }
  return nullptr;
}

/// Last recovery decision in the tail — the action the run died/continued
/// with.
std::string last_recovery_action(const obs::Json& dump) {
  const obs::Json& events = dump.at("events");
  std::string action;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("kind").str() == "recovery") {
      action = events[i].at("detail").str();
    }
  }
  return action;
}

class CrashDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Process-unique path: ctest runs each case as its own process, in
    // parallel — a shared filename lets concurrent cases scrub each
    // other's dump mid-test.
    dump_path_ = ::testing::TempDir() + "crash_dump_test_" +
                 std::to_string(::getpid()) + ".json";
    scrub();
    obs::event_log().set_armed(true);
    obs::event_log().set_dump_path(dump_path_);
  }
  void TearDown() override {
    scrub();
    std::remove(dump_path_.c_str());
  }

  void scrub() {
    fault::failpoints().disarm_all();
    obs::health().set_enabled(false);
    obs::health().reset();
    obs::EventLog& log = obs::event_log();
    log.set_armed(false);
    log.set_tracing(false);
    log.set_dump_path("");
    log.set_export_paths("", "");
    log.reset();
    std::remove(dump_path_.c_str());
  }

  obs::Json read_dump() const {
    std::ifstream in(dump_path_);
    EXPECT_TRUE(in.good()) << "no crash dump at " << dump_path_;
    std::ostringstream text;
    text << in.rdbuf();
    return obs::Json::parse(text.str());
  }

  std::string dump_path_;
};

TEST_F(CrashDumpTest, HostChainFaultNamesSiteAndRetry) {
  fault::failpoints().arm("backend.enqueue", 50);
  const core::SimulationResults r = core::run_supervised_simulation(
      small_config(backend::BackendKind::kHost, 1), test_policy());
  ASSERT_GE(r.fault_report.faults, 1u);

  const obs::Json dump = read_dump();
  EXPECT_DOUBLE_EQ(dump.at("crash_dump_version").number(), 1.0);
  EXPECT_EQ(dump.at("reason").str(), "fault:backend.enqueue");

  const obs::Json* fp = find_event(dump, "failpoint", "backend.enqueue");
  ASSERT_NE(fp, nullptr) << "tripped site missing from the event tail";
  EXPECT_EQ(fp->at("detail").str(), "device");

  const obs::Json* rec = find_event(dump, "recovery", "backend.enqueue");
  ASSERT_NE(rec, nullptr) << "recovery decision missing from the event tail";
  EXPECT_EQ(rec->at("detail").str(), "retry");

  // The fault registry's section rides along via register_section.
  ASSERT_TRUE(dump.has("failpoints"));
  EXPECT_GE(dump.at("failpoints").at("total_fired").number(), 1.0);
}

TEST_F(CrashDumpTest, GpusimCrowdFaultCarriesCrowdContext) {
  fault::failpoints().arm("backend.enqueue.gpusim", 10);
  const core::SimulationResults r = core::run_supervised_parallel(
      small_config(backend::BackendKind::kGpuSim, 3), test_policy(), 3);
  ASSERT_GE(r.fault_report.faults, 1u);
  EXPECT_FALSE(r.fault_report.degraded);  // a retry was enough

  const obs::Json dump = read_dump();
  EXPECT_EQ(dump.at("reason").str(), "fault:backend.enqueue.gpusim");
  EXPECT_DOUBLE_EQ(dump.at("context").at("crowd").number(), 0.0);
  EXPECT_NE(find_event(dump, "failpoint", "backend.enqueue.gpusim"), nullptr);
  EXPECT_EQ(last_recovery_action(dump), "retry");
  // The tail shows what the crowd was doing when it died: batched backend
  // submissions.
  EXPECT_NE(find_event(dump, "enqueue"), nullptr);
}

TEST_F(CrashDumpTest, ExhaustedRetriesRecordDegradeDecision) {
  // Persistent device fault on the gpusim enqueue path: retries exhaust and
  // the supervisor's degrade decision must be the last word in the dump.
  fault::failpoints().arm("backend.enqueue.gpusim", 10,
                          fault::FailPointRegistry::kPersistent);
  const core::SimulationResults r = core::run_supervised_parallel(
      small_config(backend::BackendKind::kGpuSim, 3),
      test_policy(/*max_retries=*/1), 3);
  EXPECT_TRUE(r.fault_report.degraded);

  const obs::Json dump = read_dump();
  EXPECT_EQ(dump.at("reason").str(), "fault:backend.enqueue.gpusim");
  EXPECT_EQ(last_recovery_action(dump), "degrade");
  EXPECT_NE(find_event(dump, "recovery", "backend.enqueue.gpusim"), nullptr);
}

TEST_F(CrashDumpTest, CheckpointFaultLandsInFlightTail) {
  // Checkpoint I/O faults are absorbed inside take_checkpoint (no
  // classification dump), but the tripped failpoint still lands in the
  // event log, so an operator-rendered dump names it.
  fault::failpoints().arm("checkpoint.save", 2);
  const core::SimulationResults r = core::run_supervised_simulation(
      small_config(backend::BackendKind::kHost, 1), test_policy());
  ASSERT_GE(r.fault_report.checkpoint_faults, 1u);

  const obs::Json dump =
      obs::event_log().crash_dump_json("operator-requested");
  EXPECT_NE(find_event(dump, "failpoint", "checkpoint.save"), nullptr);
  // Successful checkpoints around the absorbed fault also leave marks.
  EXPECT_NE(find_event(dump, "checkpoint", "checkpoint.save"), nullptr);
  ASSERT_TRUE(dump.has("failpoints"));
  EXPECT_GE(dump.at("failpoints").at("total_fired").number(), 1.0);
}

TEST_F(CrashDumpTest, RecoveredRunStillMatchesUndisturbedTrajectory) {
  // The forensic layer must be pure observation: a fault-injected run that
  // dumps on recovery ends on the same trajectory as a quiet run.
  const core::SimulationConfig cfg =
      small_config(backend::BackendKind::kHost, 1);
  fault::failpoints().arm("backend.enqueue", 50);
  const core::SimulationResults faulted =
      core::run_supervised_simulation(cfg, test_policy());
  fault::failpoints().disarm_all();
  const core::SimulationResults quiet =
      core::run_supervised_simulation(cfg, test_policy());
  EXPECT_EQ(faulted.trajectory_hash, quiet.trajectory_hash);
}

TEST_F(CrashDumpTest, TraceAndDumpShareOneClock) {
  // A traced and armed run: the failpoint and recovery records appear as
  // instants in the trace and as events in the dump, stamped with the same
  // ts_us, inside the interval the run's phase spans cover.
  obs::EventLog& log = obs::event_log();
  log.set_tracing(true);
  fault::failpoints().arm("backend.enqueue", 50);
  const core::SimulationResults r = core::run_supervised_simulation(
      small_config(backend::BackendKind::kHost, 1), test_policy());
  log.set_tracing(false);
  ASSERT_GE(r.fault_report.faults, 1u);
  ASSERT_EQ(log.dropped(), 0u);

  const obs::Json trace = log.trace_json().at("traceEvents");
  const obs::Json dump = log.crash_dump_json("check");
  double first = std::numeric_limits<double>::infinity();
  double last = -first;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::Json& e = trace[i];
    if (e.at("ph").str() == "X" && e.at("cat").str() == "phase") {
      first = std::min(first, e.at("ts").number());
      last = std::max(last, e.at("ts").number() + e.at("dur").number());
    }
  }
  for (const std::string kind : {"failpoint", "recovery"}) {
    const obs::Json* event = find_event(dump, kind, "backend.enqueue");
    ASSERT_NE(event, nullptr) << kind;
    const obs::Json* instant = nullptr;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::Json& e = trace[i];
      if (e.at("ph").str() == "i" && e.at("cat").str() == kind &&
          e.at("name").str() == "backend.enqueue") {
        instant = &e;
      }
    }
    ASSERT_NE(instant, nullptr) << kind << " missing from the trace";
    EXPECT_EQ(instant->at("ts").number(), event->at("ts_us").number())
        << kind;
    EXPECT_GT(event->at("ts_us").number(), first) << kind;
    EXPECT_LT(event->at("ts_us").number(), last) << kind;
  }
}

// Crowds of one run side by side, and each dump must name the crowd that
// faulted: every recovery and walker.fault event carries the crowd of its
// chain (chain / walker_batch), and the dump's context names the crowd of
// the last recovery decision.
class CrashDumpCrowdTest : public CrashDumpTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(CrashDumpCrowdTest, DumpNamesTheFaultingCrowd) {
  const idx walker_batch = 1;
  core::SimulationConfig cfg =
      small_config(backend::BackendKind::kHost, walker_batch);
  cfg.lx = cfg.ly = 4;
  cfg.model.beta = 4.0;
  cfg.model.slices = 32;
  cfg.measurement_sweeps = 12;
  fault::failpoints().arm("backend.enqueue",
                          static_cast<std::uint64_t>(GetParam()));
  const core::SimulationResults r =
      core::run_supervised_parallel(cfg, test_policy(), 4);
  ASSERT_GE(r.fault_report.faults, 1u);

  const obs::Json dump = read_dump();
  const obs::Json& events = dump.at("events");
  const obs::Json* last_recovery = nullptr;
  int attributed = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    const bool recovery = e.at("kind").str() == "recovery";
    if (!recovery && e.at("site").str() != "walker.fault") continue;
    ASSERT_TRUE(e.has("crowd")) << e.dump();
    if (e.has("walker")) {
      EXPECT_EQ(e.at("crowd").number(),
                std::floor(e.at("walker").number() /
                           static_cast<double>(walker_batch)))
          << e.dump();
      ++attributed;
    }
    if (recovery) last_recovery = &e;
  }
  ASSERT_NE(last_recovery, nullptr);
  EXPECT_GE(attributed, 1);
  EXPECT_EQ(dump.at("context").at("crowd").number(),
            last_recovery->at("crowd").number());
}

INSTANTIATE_TEST_SUITE_P(HitCounts, CrashDumpCrowdTest,
                         ::testing::Values(150, 300, 450, 600, 750));

}  // namespace
}  // namespace dqmc
