// Integration tests: complete DQMC simulations validated against exact
// results (free fermions at U = 0; many-body exact diagonalization at
// U > 0 on a 2x2 cluster).
#include "dqmc/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "dqmc/checkpoint.h"
#include "dqmc/supervisor.h"
#include "fault/failpoint.h"
#include "hubbard/free_fermion.h"
#include "testing/exact_diag.h"

namespace dqmc::core {
namespace {

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.lx = 2;
  cfg.ly = 2;
  cfg.model.u = 4.0;
  cfg.model.beta = 2.0;
  cfg.model.slices = 20;
  cfg.engine.cluster_size = 5;
  cfg.engine.delay_rank = 4;
  cfg.warmup_sweeps = 200;
  cfg.measurement_sweeps = 800;
  cfg.bins = 16;
  cfg.seed = 20260707;
  return cfg;
}

TEST(Simulation, FreeFermionsReproduceExactDensityAndMomentum) {
  SimulationConfig cfg = base_config();
  cfg.lx = cfg.ly = 4;
  cfg.model.u = 0.0;
  cfg.warmup_sweeps = 5;
  cfg.measurement_sweeps = 10;  // U = 0 has zero variance: few sweeps suffice
  SimulationResults res = run_simulation(cfg);

  const Lattice lat = cfg.make_lattice();
  EXPECT_NEAR(res.measurements.density().mean,
              hubbard::free_density(lat, cfg.model), 1e-8);
  const auto ks = lat.momenta();
  for (std::size_t k = 0; k < ks.size(); ++k) {
    EXPECT_NEAR(res.measurements.momentum_dist(static_cast<idx>(k)).mean,
                hubbard::free_momentum_occupation(cfg.model, ks[k]), 1e-8);
  }
  EXPECT_NEAR(res.measurements.average_sign().mean, 1.0, 1e-12);
}

TEST(Simulation, MatchesExactDiagonalizationOn2x2) {
  // The headline correctness test: full DQMC vs brute-force many-body ED.
  SimulationConfig cfg = base_config();
  SimulationResults res = run_simulation(cfg);

  const Lattice lat = cfg.make_lattice();
  testing::ExactThermal exact = testing::exact_thermal(lat, cfg.model);

  const auto density = res.measurements.density();
  const auto docc = res.measurements.double_occupancy();
  const auto kinetic = res.measurements.kinetic_energy();
  const auto moment = res.measurements.moment_sq();

  // Half filling must be exact by particle-hole symmetry.
  EXPECT_NEAR(exact.density, 1.0, 1e-12);
  EXPECT_NEAR(density.mean, 1.0, 5.0 * std::max(density.error, 2e-3));

  // Statistical agreement within 5 sigma (plus a floor for the Trotter
  // error, O(dtau^2) ~ 1e-2 at dtau = 0.1).
  const double trotter = 5e-3;
  EXPECT_NEAR(docc.mean, exact.double_occupancy,
              5.0 * docc.error + trotter)
      << "DQMC " << docc.mean << " +- " << docc.error << " vs ED "
      << exact.double_occupancy;
  EXPECT_NEAR(kinetic.mean, exact.kinetic_energy,
              5.0 * kinetic.error + 4.0 * trotter)
      << "DQMC " << kinetic.mean << " +- " << kinetic.error << " vs ED "
      << exact.kinetic_energy;
  EXPECT_NEAR(moment.mean, exact.moment_sq, 5.0 * moment.error + trotter);

  // Spin correlations, all displacements.
  for (idx d = 0; d < lat.num_displacements(); ++d) {
    const auto czz = res.measurements.spin_corr(d);
    EXPECT_NEAR(czz.mean, exact.spin_corr[d], 5.0 * czz.error + 2.0 * trotter)
        << "displacement " << d;
  }
}

TEST(Simulation, TrotterErrorShrinksWithSliceCount) {
  // Halving dtau should move double occupancy toward the ED value.
  SimulationConfig coarse = base_config();
  coarse.model.slices = 8;  // dtau = 0.25
  coarse.warmup_sweeps = 150;
  coarse.measurement_sweeps = 600;
  SimulationConfig fine = base_config();
  fine.model.slices = 40;  // dtau = 0.05
  fine.warmup_sweeps = 150;
  fine.measurement_sweeps = 600;

  testing::ExactThermal exact =
      testing::exact_thermal(coarse.make_lattice(), coarse.model);
  SimulationResults rc = run_simulation(coarse);
  SimulationResults rf = run_simulation(fine);

  const double err_coarse =
      std::fabs(rc.measurements.double_occupancy().mean - exact.double_occupancy);
  const double err_fine =
      std::fabs(rf.measurements.double_occupancy().mean - exact.double_occupancy);
  // Allow statistical noise: fine must not be much worse than coarse.
  EXPECT_LT(err_fine, err_coarse + 3.0 * rf.measurements.double_occupancy().error);
}

TEST(Simulation, ProgressCallbackFires) {
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 3;
  cfg.measurement_sweeps = 4;
  idx calls = 0, warmups = 0;
  run_simulation(cfg, [&](idx done, idx total, bool warmup) {
    ++calls;
    if (warmup) ++warmups;
    EXPECT_LE(done, total);
  });
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(warmups, 3);
}

TEST(Simulation, MeasureIntervalThinsSamples) {
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 10;
  cfg.measure_interval = 2;
  SimulationResults res = run_simulation(cfg);
  EXPECT_EQ(res.measurements.samples(), 5);
}

TEST(Simulation, DynamicMeasurementsAccumulateWhenEnabled) {
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 6;
  cfg.measure_dynamic_interval = 2;
  SimulationResults res = run_simulation(cfg);
  EXPECT_EQ(res.dynamic.samples(), 3);
  // Endpoint sum rule holds on the averaged local propagator.
  const double g0 = res.dynamic.gloc(0).mean;
  const double gb = res.dynamic.gloc(cfg.model.slices).mean;
  EXPECT_NEAR(g0 + gb, 1.0, 1e-6);
  // chi_AF(0) should be positive at half filling.
  EXPECT_GT(res.dynamic.chi_af(0).mean, 0.0);
}

TEST(Simulation, DynamicMeasurementsOffByDefault) {
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 1;
  cfg.measurement_sweeps = 2;
  SimulationResults res = run_simulation(cfg);
  EXPECT_EQ(res.dynamic.samples(), 0);
}

TEST(Simulation, CheckpointThroughConfigResumesTrajectory) {
  const std::string path = ::testing::TempDir() + "/sim_ckpt.txt";

  // Leg 1: run and save.
  SimulationConfig leg1 = base_config();
  leg1.warmup_sweeps = 5;
  leg1.measurement_sweeps = 5;
  leg1.checkpoint_out = path;
  (void)run_simulation(leg1);

  // Leg 2: resume and continue (no warmup needed — state is thermalized
  // to the degree leg 1 reached). Seed is irrelevant after resume.
  SimulationConfig leg2 = base_config();
  leg2.warmup_sweeps = 0;
  leg2.measurement_sweeps = 5;
  leg2.checkpoint_in = path;
  leg2.seed = 987654;
  SimulationResults resumed = run_simulation(leg2);

  // Reference: one uninterrupted run covering both legs.
  SimulationConfig whole = base_config();
  whole.warmup_sweeps = 5;
  whole.measurement_sweeps = 10;
  SimulationResults reference = run_simulation(whole);

  // The resumed leg's samples are the reference's LAST five sweeps; its
  // running density must agree with a direct recomputation — check the
  // trajectory equivalence via the total acceptance count of leg1+leg2
  // equaling the whole run's.
  EXPECT_EQ(resumed.measurements.samples(), 5);
  SimulationConfig leg1b = base_config();
  leg1b.warmup_sweeps = 5;
  leg1b.measurement_sweeps = 5;
  SimulationResults first = run_simulation(leg1b);
  EXPECT_EQ(first.sweep_stats.accepted + resumed.sweep_stats.accepted,
            reference.sweep_stats.accepted);
}

// checkpoint_in is read once, before the first segment. When the initial
// in-memory checkpoint is skipped (two failed saves), a fault in the first
// segment restores the crowd from the text the supervisor holds: the run
// lands on the uninterrupted trajectory although the file is gone by then.
TEST(Simulation, CheckpointInRestoresFromTheTextItRead) {
  const std::string path = ::testing::TempDir() + "/sim_ckpt_held.txt";
  SimulationConfig whole = base_config();
  whole.warmup_sweeps = 4;
  whole.measurement_sweeps = 0;
  const SimulationResults reference = run_simulation(whole);

  DqmcEngine first(whole.make_lattice(), whole.model, whole.engine,
                   whole.seed);
  first.initialize();
  first.sweep();
  first.sweep();
  save_checkpoint_file(path, first);

  SimulationConfig rest = whole;
  rest.warmup_sweeps = 2;
  rest.checkpoint_in = path;
  rest.seed = 987654;
  EXPECT_EQ(run_simulation(rest).trajectory_hash, reference.trajectory_hash);

  fault::failpoints().disarm_all();
  fault::failpoints().arm("checkpoint.save", 1, 2);
  fault::failpoints().arm("batch.wrap", whole.model.slices + 5);
  bool removed = false;
  const ProgressFn remove_file = [&](idx, idx, bool) {
    if (!removed) removed = std::remove(path.c_str()) == 0;
  };
  SupervisorPolicy policy;
  policy.checkpoint_interval = 2;
  const SimulationResults recovered =
      run_supervised_simulation(rest, policy, remove_file);
  fault::failpoints().disarm_all();
  EXPECT_TRUE(removed);
  EXPECT_EQ(recovered.fault_report.checkpoint_faults, 2u);
  EXPECT_EQ(recovered.fault_report.restarts, 1u);
  EXPECT_EQ(recovered.trajectory_hash, reference.trajectory_hash);
}

// A checkpoint_in that is missing, of another version or malformed is an
// input error naming the path, raised before the first segment.
TEST(Simulation, BadCheckpointInIsAnInputErrorNamingThePath) {
  const std::string dir = ::testing::TempDir();
  const auto expect_input_error = [](const SimulationConfig& cfg,
                                     const std::string& needle) {
    try {
      (void)run_simulation(cfg);
      ADD_FAILURE() << cfg.checkpoint_in << " was accepted";
    } catch (const InputError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(cfg.checkpoint_in), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 1;
  cfg.measurement_sweeps = 1;
  cfg.checkpoint_in = dir + "/no_such_checkpoint.txt";
  expect_input_error(cfg, "cannot read");

  cfg.checkpoint_in = dir + "/sim_ckpt_v1.txt";
  std::ofstream(cfg.checkpoint_in) << "dqmcpp-checkpoint v1\nslices 20\n";
  expect_input_error(cfg, "v1");

  cfg.checkpoint_in = dir + "/sim_ckpt_truncated.txt";
  std::ofstream(cfg.checkpoint_in) << "dqmcpp-checkpoint v3\nslices 20\n";
  expect_input_error(cfg, "sites");
}

TEST(Simulation, ResultsCarryProfileAndStats) {
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 2;
  SimulationResults res = run_simulation(cfg);
  EXPECT_GT(res.elapsed_seconds, 0.0);
  EXPECT_GT(res.profiler.total_seconds(), 0.0);
  EXPECT_EQ(res.sweep_stats.proposed, 4u * 20u * 4u);
  EXPECT_GT(res.strat_stats.evaluations, 0u);
}

TEST(Simulation, EveryEntryPointRejectsSchedulesThatCannotRun) {
  // A zero measure_interval used to divide by zero mid-run; negative sweep
  // counts used to "succeed" with zero samples.
  struct Case {
    const char* field;
    void (*apply)(SimulationConfig&);
  };
  const Case cases[] = {
      {"measure_interval", [](SimulationConfig& c) { c.measure_interval = 0; }},
      {"measurement_sweeps",
       [](SimulationConfig& c) { c.measurement_sweeps = -5; }},
      {"warmup_sweeps", [](SimulationConfig& c) { c.warmup_sweeps = -3; }},
      {"measure_slice_interval",
       [](SimulationConfig& c) { c.measure_slice_interval = -1; }},
      {"measure_dynamic_interval",
       [](SimulationConfig& c) { c.measure_dynamic_interval = -1; }},
      {"walker_batch", [](SimulationConfig& c) { c.walker_batch = -1; }},
  };
  const SupervisorPolicy policy;
  for (const Case& c : cases) {
    SimulationConfig cfg = base_config();
    c.apply(cfg);
    try {
      cfg.validate();
      ADD_FAILURE() << c.field << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(run_simulation(cfg), InvalidArgument) << c.field;
    EXPECT_THROW(run_parallel_simulation(cfg, 2), InvalidArgument) << c.field;
    EXPECT_THROW(run_supervised_simulation(cfg, policy), InvalidArgument)
        << c.field;
    EXPECT_THROW(run_supervised_parallel(cfg, policy, 2), InvalidArgument)
        << c.field;
  }
}

TEST(Simulation, MultiChainRunsRejectCheckpointFiles) {
  // One checkpoint_in would start every chain from the same field and RNG
  // state (identical copies, wrong merged error bars); one checkpoint_out
  // would be written by several chains at once.
  const SupervisorPolicy policy;
  for (const char* key : {"checkpoint_in", "checkpoint_out"}) {
    SimulationConfig cfg = base_config();
    const std::string path = ::testing::TempDir() + "multi_chain_" + key;
    (key == std::string("checkpoint_in") ? cfg.checkpoint_in
                                         : cfg.checkpoint_out) = path;
    EXPECT_NO_THROW(cfg.validate(1)) << key;
    for (const idx width : {1, 2}) {
      cfg.walker_batch = width;
      const auto names_key = [&](const auto& run) {
        try {
          run();
          ADD_FAILURE() << key << " accepted at walker_batch " << width;
        } catch (const InvalidArgument& e) {
          EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
              << e.what();
        }
      };
      names_key([&] { run_parallel_simulation(cfg, 2); });
      names_key([&] { run_supervised_parallel(cfg, policy, 2); });
    }
    EXPECT_FALSE(std::ifstream(path).good()) << key << " touched " << path;
  }
}

TEST(Simulation, ValidationBoundsAreInclusive) {
  // Every bound admits its edge value: no warmup, no sweeps, a measurement
  // every sweep, slice and dynamic measurements off, crowds of one.
  SimulationConfig cfg = base_config();
  cfg.warmup_sweeps = 0;
  cfg.measurement_sweeps = 0;
  cfg.measure_interval = 1;
  cfg.measure_slice_interval = 0;
  cfg.measure_dynamic_interval = 0;
  cfg.walker_batch = 1;
  EXPECT_NO_THROW(cfg.validate());

  cfg.measurement_sweeps = 2;
  cfg.bins = 2;
  const SimulationResults res = run_simulation(cfg);
  EXPECT_EQ(res.measurements.samples(), 2);
}

}  // namespace
}  // namespace dqmc::core
