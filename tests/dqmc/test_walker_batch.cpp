// Walker crowds (dqmc/walker_batch.h): a crowd's walkers must be bitwise
// identical to their single-walker engines — at every crowd size, on both
// backends, and under any thread budget.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "dqmc/checkpoint.h"
#include "dqmc/simulation.h"
#include "dqmc/walker_batch.h"
#include "parallel/topology.h"

namespace dqmc::core {
namespace {

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) { par::set_num_threads(threads); }
  ~ThreadCountGuard() { par::set_num_threads(0); }
};

SimulationConfig tiny_config(backend::BackendKind kind) {
  SimulationConfig cfg;
  cfg.lx = cfg.ly = 2;
  cfg.model.u = 4.0;
  cfg.model.beta = 2.0;
  cfg.model.slices = 10;
  cfg.engine.cluster_size = 5;
  cfg.engine.delay_rank = 8;
  cfg.engine.backend = kind;
  cfg.warmup_sweeps = 6;
  cfg.measurement_sweeps = 12;
  cfg.bins = 4;
  cfg.seed = 11;
  return cfg;
}

class WalkerBatchBackends
    : public ::testing::TestWithParam<backend::BackendKind> {};

// W = 1 crowds (the default: every chain its own crowd of one, crowds side
// by side) must reproduce the merged trajectory hash of one crowd holding
// both chains bit for bit.
TEST_P(WalkerBatchBackends, W1CrowdBitwiseMatchesUnbatched) {
  SimulationConfig cfg = tiny_config(GetParam());
  cfg.walker_batch = 2;
  SimulationResults plain = run_parallel_simulation(cfg, 2);
  cfg.walker_batch = 1;
  SimulationResults crowd = run_parallel_simulation(cfg, 2);
  EXPECT_EQ(plain.trajectory_hash, crowd.trajectory_hash);
  EXPECT_DOUBLE_EQ(plain.measurements.density().mean,
                   crowd.measurements.density().mean);
  EXPECT_DOUBLE_EQ(plain.measurements.double_occupancy().mean,
                   crowd.measurements.double_occupancy().mean);
  EXPECT_EQ(crowd.batch_walkers, 1);
  EXPECT_EQ(crowd.batch_crowds, 2);
}

// Every walker of a crowd must follow the exact trajectory (and end on the
// exact Green's functions) of the corresponding solo engine, walker by
// walker, for W in {1, 2, 3, 5} at 1, 2 and 4 threads.
TEST_P(WalkerBatchBackends, CrowdMatchesSoloEnginesWalkerByWalker) {
  const SimulationConfig cfg = tiny_config(GetParam());
  const Lattice lattice = cfg.make_lattice();
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15};
  constexpr idx kSweeps = 5;
  std::vector<std::unique_ptr<DqmcEngine>> solo;
  for (const std::uint64_t seed : seeds) {
    solo.push_back(
        std::make_unique<DqmcEngine>(lattice, cfg.model, cfg.engine, seed));
    solo.back()->initialize();
    for (idx sweep = 0; sweep < kSweeps; ++sweep) solo.back()->sweep();
  }

  for (const std::size_t width : {1, 2, 3, 5}) {
    for (int threads : {1, 2, 4}) {
      ThreadCountGuard guard(threads);
      WalkerBatch batch(lattice, cfg.model, cfg.engine,
                        std::vector(seeds.begin(), seeds.begin() + width));
      batch.initialize_all();
      for (idx sweep = 0; sweep < kSweeps; ++sweep) batch.sweep_all();
      for (std::size_t w = 0; w < width; ++w) {
        DqmcEngine& got = batch.engine(static_cast<idx>(w));
        const auto where = ::testing::Message()
                           << "W = " << width << ", threads = " << threads
                           << ", walker " << w;
        EXPECT_EQ(trajectory_hash(*solo[w]), trajectory_hash(got)) << where;
        EXPECT_EQ(solo[w]->config_sign(), got.config_sign()) << where;
        for (Spin s : hubbard::kSpins) {
          const linalg::Matrix& a = solo[w]->greens(s);
          const linalg::Matrix& b = got.greens(s);
          EXPECT_EQ(std::memcmp(a.data(), b.data(),
                                sizeof(double) *
                                    static_cast<std::size_t>(a.rows() *
                                                             a.cols())),
                    0)
              << where;
        }
      }
    }
  }
}

// Crowd partitioning: W dividing the chain count and W leaving a remainder
// crowd must both reproduce the unbatched merged results exactly.
TEST_P(WalkerBatchBackends, PartitionShapesMatchUnbatched) {
  SimulationConfig cfg = tiny_config(GetParam());
  cfg.measurement_sweeps = 8;
  SimulationResults plain = run_parallel_simulation(cfg, 5);

  cfg.walker_batch = 4;
  SimulationResults crowd4 = run_parallel_simulation(cfg, 5);
  EXPECT_EQ(plain.trajectory_hash, crowd4.trajectory_hash);
  EXPECT_EQ(crowd4.batch_crowds, 2);  // 4 + 1

  cfg.walker_batch = 2;
  SimulationResults crowd2 = run_parallel_simulation(cfg, 5);
  EXPECT_EQ(plain.trajectory_hash, crowd2.trajectory_hash);
  EXPECT_EQ(crowd2.batch_crowds, 3);  // 2 + 2 + 1
  EXPECT_DOUBLE_EQ(plain.measurements.af_structure_factor().mean,
                   crowd2.measurements.af_structure_factor().mean);
}

// The thread budget must not leak into any walker's trajectory, whatever
// share of it each walker's kernels get (budget / W, down to 1).
TEST_P(WalkerBatchBackends, ThreadCountDoesNotChangeTrajectories) {
  for (idx width : {3, 4}) {
    SimulationConfig cfg = tiny_config(GetParam());
    cfg.walker_batch = width;
    cfg.measurement_sweeps = 6;
    std::uint64_t reference = 0;
    for (int threads : {1, 2, 4}) {
      ThreadCountGuard guard(threads);
      SimulationResults r = run_parallel_simulation(cfg, width);
      if (reference == 0) {
        reference = r.trajectory_hash;
      } else {
        EXPECT_EQ(reference, r.trajectory_hash)
            << "W = " << width << ": thread budget " << threads
            << " forked a trajectory";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, WalkerBatchBackends,
                         ::testing::Values(backend::BackendKind::kHost,
                                           backend::BackendKind::kGpuSim),
                         [](const auto& pinfo) {
                           return pinfo.param == backend::BackendKind::kHost
                                      ? "host"
                                      : "gpusim";
                         });

// Crowd wraps keep per-walker device residency: after warmup most slices
// wrap a G no Metropolis accept touched on at least one spin, so over a run
// of the config's length uploads must be getting skipped for every walker.
TEST(WalkerBatch, TracksPerWalkerResidency) {
  const SimulationConfig cfg = tiny_config(backend::BackendKind::kGpuSim);
  const Lattice lattice = cfg.make_lattice();
  WalkerBatch batch(lattice, cfg.model, cfg.engine, {11, 12});
  batch.initialize_all();
  for (idx sweep = 0; sweep < cfg.warmup_sweeps + cfg.measurement_sweeps;
       ++sweep) {
    batch.sweep_all();
  }
  for (idx w = 0; w < batch.walkers(); ++w) {
    EXPECT_GT(batch.engine(w).wrap_uploads_skipped(), 0u) << "walker " << w;
  }
}

// Measurement hooks fire once per walker at each slice boundary (from the
// walker's own task, so each call touches only its walker's counter).
TEST(WalkerBatch, SliceHooksSeeFlushedGreens) {
  const SimulationConfig cfg = tiny_config(backend::BackendKind::kHost);
  const Lattice lattice = cfg.make_lattice();
  WalkerBatch batch(lattice, cfg.model, cfg.engine, {21, 22});
  batch.initialize_all();
  std::vector<idx> calls(2, 0);
  batch.sweep_all([&](idx w, idx slice) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 2);
    EXPECT_GE(slice, 0);
    EXPECT_LT(slice, cfg.model.slices);
    ++calls[static_cast<std::size_t>(w)];
  });
  EXPECT_EQ(calls[0], cfg.model.slices);
  EXPECT_EQ(calls[1], cfg.model.slices);
}

TEST(WalkerBatch, RejectsEmptyCrowdAndBadConfig) {
  const SimulationConfig cfg = tiny_config(backend::BackendKind::kHost);
  const Lattice lattice = cfg.make_lattice();
  EXPECT_THROW(WalkerBatch(lattice, cfg.model, cfg.engine, {}),
               InvalidArgument);
  for (const idx width : {0, -1}) {
    SimulationConfig bad = cfg;
    bad.walker_batch = width;
    EXPECT_THROW(run_parallel_simulation(bad, 2), InvalidArgument);
    EXPECT_THROW(run_simulation(bad), InvalidArgument);
  }
}

}  // namespace
}  // namespace dqmc::core
