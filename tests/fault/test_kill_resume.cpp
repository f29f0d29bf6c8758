// Kill-and-resume determinism suite: a chain interrupted at any sweep
// boundary and resumed from its checkpoint, or killed mid-sweep (at a
// non-cluster-aligned slice, or by an injected fault under the supervisor)
// and replayed from its last sweep boundary, must follow the exact
// trajectory of an undisturbed run, bit for bit, on both backends and
// across several (N, L, k) points.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "dqmc/checkpoint.h"
#include "dqmc/engine.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fault/failpoint.h"
#include "linalg/norms.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;
using hubbard::Spin;

struct KillPoint {
  idx l;       // lattice edge (N = l*l)
  idx slices;  // L
  idx k;       // cluster size
  backend::BackendKind backend;
};

std::string point_name(const KillPoint& pt) {
  std::ostringstream name;
  name << "l" << pt.l << "_L" << pt.slices << "_k" << pt.k << "_"
       << backend::backend_kind_name(pt.backend);
  return name.str();
}

// gtest prints parameters in test listings; without this it dumps the
// struct's bytes, padding included, so the listed names vary by build.
void PrintTo(const KillPoint& pt, std::ostream* os) { *os << point_name(pt); }

constexpr idx kTotalSweeps = 6;

ModelParams params_for(const KillPoint& pt) {
  ModelParams p;
  p.u = 4.0;
  p.beta = 0.125 * static_cast<double>(pt.slices);
  p.slices = pt.slices;
  return p;
}

EngineConfig config_for(const KillPoint& pt) {
  EngineConfig cfg;
  cfg.cluster_size = pt.k;
  cfg.delay_rank = 8;
  cfg.backend = pt.backend;
  return cfg;
}

void expect_bitwise_equal(DqmcEngine& ref, DqmcEngine& resumed,
                          const std::string& where) {
  ASSERT_EQ(ref.config_sign(), resumed.config_sign()) << where;
  for (idx l = 0; l < ref.slices(); ++l) {
    for (idx i = 0; i < ref.n(); ++i) {
      ASSERT_EQ(ref.field()(l, i), resumed.field()(l, i))
          << where << ": field differs at slice " << l << " site " << i;
    }
  }
  for (Spin s : hubbard::kSpins) {
    EXPECT_EQ(linalg::relative_difference(ref.greens(s), resumed.greens(s)),
              0.0)
        << where;
  }
  EXPECT_EQ(trajectory_hash(ref), trajectory_hash(resumed)) << where;
}

class KillResume : public ::testing::TestWithParam<KillPoint> {
 protected:
  void SetUp() override { fault::failpoints().disarm_all(); }
  void TearDown() override { fault::failpoints().disarm_all(); }
};

INSTANTIATE_TEST_SUITE_P(
    Points, KillResume,
    ::testing::Values(
        KillPoint{2, 8, 4, backend::BackendKind::kHost},
        KillPoint{2, 8, 4, backend::BackendKind::kGpuSim},
        KillPoint{4, 12, 5, backend::BackendKind::kHost},   // ragged tail
        KillPoint{4, 12, 5, backend::BackendKind::kGpuSim},
        KillPoint{4, 20, 10, backend::BackendKind::kHost},  // paper's k=10
        KillPoint{3, 10, 4, backend::BackendKind::kGpuSim}),
    [](const auto& pinfo) { return point_name(pinfo.param); });

TEST_P(KillResume, SweepBoundaryKillIsBitwise) {
  const KillPoint pt = GetParam();
  Lattice lat(pt.l, pt.l);

  // The undisturbed reference trajectory.
  DqmcEngine ref(lat, params_for(pt), config_for(pt), 41);
  ref.initialize();
  for (idx g = 0; g < kTotalSweeps; ++g) ref.sweep();

  // Odd counts end an up sweep (the resumed chain sweeps down next), even
  // ones a down sweep.
  for (idx kill_at : {idx{1}, idx{2}, idx{3}, idx{5}}) {
    DqmcEngine victim(lat, params_for(pt), config_for(pt), 41);
    victim.initialize();
    for (idx g = 0; g < kill_at; ++g) victim.sweep();
    std::stringstream ckpt;
    save_checkpoint(ckpt, victim);

    // A fresh process would construct a brand-new engine; seed 0 proves the
    // checkpoint carries the whole Markov state.
    DqmcEngine resumed(lat, params_for(pt), config_for(pt), 0);
    load_checkpoint(ckpt, resumed);
    for (idx g = kill_at; g < kTotalSweeps; ++g) resumed.sweep();
    expect_bitwise_equal(ref, resumed,
                         "killed at sweep " + std::to_string(kill_at));
  }
}

/// Thrown from the slice hook to abandon a sweep mid-flight — the "kill".
struct KillSignal {};

TEST_P(KillResume, MidSweepKillAtUnalignedSliceIsBitwise) {
  const KillPoint pt = GetParam();
  Lattice lat(pt.l, pt.l);

  DqmcEngine ref(lat, params_for(pt), config_for(pt), 59);
  ref.initialize();
  for (idx g = 0; g < kTotalSweeps; ++g) ref.sweep();

  // Kill inside a down sweep (#2) and an up sweep (#3) right after slice
  // k+1 finishes: the slice visited next (k going down, k+2 going up) is in
  // the same cluster, so the victim holds a half-done sweep (flipped spins,
  // a stale G, spent RNG draws). The sweep boundary before it is the only
  // resume point.
  const idx kill_slice = pt.k + 1;
  ASSERT_LT(kill_slice + 1, pt.slices);
  ASSERT_NE((kill_slice + 1) % pt.k, idx{0});
  ASSERT_NE(kill_slice % pt.k, idx{0});

  for (const idx kill_full : {idx{1}, idx{2}}) {
    const std::string where =
        "mid-sweep kill after " + std::to_string(kill_full) + " sweeps, ";
    DqmcEngine victim(lat, params_for(pt), config_for(pt), 59);
    victim.initialize();
    for (idx g = 0; g < kill_full; ++g) victim.sweep();
    std::stringstream ckpt;
    save_checkpoint(ckpt, victim);
    const std::string boundary = ckpt.str();
    try {
      victim.sweep([&](idx slice) {
        if (slice == kill_slice) throw KillSignal{};
      });
      FAIL() << "kill hook never fired";
    } catch (const KillSignal&) {
    }

    // A fresh process replays the interrupted sweep from the boundary.
    DqmcEngine resumed(lat, params_for(pt), config_for(pt), 0);
    load_checkpoint(ckpt, resumed);
    for (idx g = kill_full; g < kTotalSweeps; ++g) resumed.sweep();
    expect_bitwise_equal(ref, resumed, where + "fresh engine");

    // So does the killed engine itself: loading the boundary drops every
    // trace of the abandoned half sweep.
    std::stringstream again(boundary);
    load_checkpoint(again, victim);
    for (idx g = kill_full; g < kTotalSweeps; ++g) victim.sweep();
    expect_bitwise_equal(ref, victim, where + "killed engine");
  }
}

TEST_P(KillResume, SupervisedInjectedKillMatchesCleanRun) {
  // End-to-end flavor: the same interruption driven through the fail-point
  // registry and the walker supervisor's restart path, compared against the
  // trajectory hash of a fault-free run_simulation.
  const KillPoint pt = GetParam();
  SimulationConfig cfg;
  cfg.lx = cfg.ly = pt.l;
  cfg.model = params_for(pt);
  cfg.engine = config_for(pt);
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 4;
  cfg.bins = 2;
  cfg.seed = 23;

  const SimulationResults plain = run_simulation(cfg);

  fault::failpoints().disarm_all();
  fault::failpoints().arm("backend.enqueue", 60);
  SupervisorPolicy policy;
  policy.checkpoint_interval = 2;
  policy.max_retries = 2;
  const SimulationResults supervised =
      run_supervised_simulation(cfg, policy);
  ASSERT_EQ(fault::failpoints().state("backend.enqueue").fired, 1u);
  EXPECT_EQ(plain.trajectory_hash, supervised.trajectory_hash);
  EXPECT_EQ(plain.measurements.density().mean,
            supervised.measurements.density().mean);
  EXPECT_GE(supervised.fault_report.restarts, 1u);
}

}  // namespace
}  // namespace dqmc::core
