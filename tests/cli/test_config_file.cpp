#include "cli/config_file.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"

namespace dqmc::cli {
namespace {

TEST(ConfigFile, ParsesKeysValuesAndComments) {
  ConfigFile cfg = ConfigFile::parse(
      "# a comment line\n"
      "lx = 8\n"
      "beta = 5.5   # trailing comment\n"
      "\n"
      "algorithm = qrp\n");
  EXPECT_TRUE(cfg.has("lx"));
  EXPECT_EQ(cfg.get_long("lx", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("beta", 0.0), 5.5);
  EXPECT_EQ(cfg.get("algorithm", ""), "qrp");
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_EQ(cfg.get_long("missing", 42), 42);
}

TEST(ConfigFile, LaterDuplicatesWin) {
  ConfigFile cfg = ConfigFile::parse("u = 2\nu = 6\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("u", 0.0), 6.0);
}

TEST(ConfigFile, MalformedLinesThrow) {
  EXPECT_THROW(ConfigFile::parse("just words\n"), InvalidArgument);
  EXPECT_THROW(ConfigFile::parse("= value\n"), InvalidArgument);
}

TEST(ConfigFile, TypeMismatchesThrow) {
  ConfigFile cfg = ConfigFile::parse("lx = eight\nsweeps =\n");
  EXPECT_THROW(cfg.get_long("lx", 0), InvalidArgument);
  EXPECT_THROW(cfg.get_double("lx", 0.0), InvalidArgument);
  // An empty value is not 0.
  EXPECT_THROW(cfg.get_long("sweeps", 0), InvalidArgument);
  EXPECT_THROW(cfg.get_double("sweeps", 0.0), InvalidArgument);
  EXPECT_THROW(simulation_config_from(cfg), InvalidArgument);
}

TEST(ConfigFile, OutOfRangeNumbersThrowNamingTheKey) {
  ConfigFile cfg = ConfigFile::parse(
      "lx = 99999999999999999999\nbeta = 1e999\n"
      "seed = 99999999999999999999999\n");
  try {
    cfg.get_long("lx", 0);
    ADD_FAILURE() << "an overflowing integer was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'lx'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(cfg.get_double("beta", 0.0), InvalidArgument);
  EXPECT_THROW(cfg.get_long("seed", 0), InvalidArgument);
  EXPECT_THROW(simulation_config_from(cfg), InvalidArgument);
  // A crowd has at least one walker.
  try {
    simulation_config_from(ConfigFile::parse("walker_batch = 0\n"));
    ADD_FAILURE() << "walker_batch = 0 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("walker_batch"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigFile, RangeCheckIsExactAtBothEnds) {
  // The extremes of long still parse; one past either end, or a double
  // beyond -DBL_MAX, would be silently clamped and so must throw instead.
  ConfigFile cfg = ConfigFile::parse(
      "hi = 9223372036854775807\nlo = -9223372036854775808\n"
      "seed = -9223372036854775809\nmu = -1e999\n");
  EXPECT_EQ(cfg.get_long("hi", 0), std::numeric_limits<long>::max());
  EXPECT_EQ(cfg.get_long("lo", 0), std::numeric_limits<long>::min());
  const auto message = [](const auto& get) -> std::string {
    try {
      get();
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::string seed = message([&] { cfg.get_long("seed", 0); });
  EXPECT_NE(seed.find("'seed'"), std::string::npos) << seed;
  const std::string mu = message([&] { cfg.get_double("mu", 0.0); });
  EXPECT_NE(mu.find("'mu'"), std::string::npos) << mu;
}

TEST(SimulationConfigFrom, MapsAllKeys) {
  ConfigFile cfg = ConfigFile::parse(
      "lx = 6\nly = 4\nlayers = 2\n"
      "t = 1.5\ntperp = 0.5\nu = 3.0\nmu = 0.25\nbeta = 7.0\nslices = 70\n"
      "warmup = 11\nsweeps = 22\nmeasure_interval = 2\n"
      "measure_slice_interval = 3\nbins = 8\nseed = 77\n"
      "algorithm = qrp\ncluster_size = 7\ndelay_rank = 16\n"
      "backend = gpusim\n");
  core::SimulationConfig sim = simulation_config_from(cfg);
  EXPECT_EQ(sim.lx, 6);
  EXPECT_EQ(sim.ly, 4);
  EXPECT_EQ(sim.layers, 2);
  EXPECT_DOUBLE_EQ(sim.model.t, 1.5);
  EXPECT_DOUBLE_EQ(sim.model.t_perp, 0.5);
  EXPECT_DOUBLE_EQ(sim.model.u, 3.0);
  EXPECT_DOUBLE_EQ(sim.model.mu, 0.25);
  EXPECT_DOUBLE_EQ(sim.model.beta, 7.0);
  EXPECT_EQ(sim.model.slices, 70);
  EXPECT_EQ(sim.warmup_sweeps, 11);
  EXPECT_EQ(sim.measurement_sweeps, 22);
  EXPECT_EQ(sim.measure_interval, 2);
  EXPECT_EQ(sim.measure_slice_interval, 3);
  EXPECT_EQ(sim.bins, 8);
  EXPECT_EQ(sim.seed, 77u);
  EXPECT_EQ(sim.engine.algorithm, core::StratAlgorithm::kQRP);
  EXPECT_EQ(sim.engine.cluster_size, 7);
  EXPECT_EQ(sim.engine.delay_rank, 16);
  EXPECT_EQ(sim.engine.backend, backend::BackendKind::kGpuSim);
}

TEST(SimulationConfigFrom, BackendDefaultsToHost) {
  ConfigFile cfg = ConfigFile::parse("lx = 4\n");
  EXPECT_EQ(simulation_config_from(cfg).engine.backend,
            backend::BackendKind::kHost);
}

TEST(SimulationConfigFrom, RemovedKeysAreUnknown) {
  for (const char* text :
       {"gpu_clustering = 1\n", "gpu_wrapping = 1\n", "precision = fp64\n",
        "stabilizer = svdstack\n", "measure = fft\n", "measure = direct\n"}) {
    EXPECT_THROW(simulation_config_from(ConfigFile::parse(text)),
                 InvalidArgument)
        << text;
  }
}

TEST(SimulationConfigFrom, BadBackendThrows) {
  ConfigFile cfg = ConfigFile::parse("backend = cuda\n");
  EXPECT_THROW(simulation_config_from(cfg), InvalidArgument);
}

TEST(SimulationConfigFrom, QuestAliasesWork) {
  ConfigFile cfg = ConfigFile::parse("L = 80\nnwarm = 5\nnpass = 9\nnorth = 12\n");
  core::SimulationConfig sim = simulation_config_from(cfg);
  EXPECT_EQ(sim.model.slices, 80);
  EXPECT_EQ(sim.warmup_sweeps, 5);
  EXPECT_EQ(sim.measurement_sweeps, 9);
  EXPECT_EQ(sim.engine.cluster_size, 12);
}

TEST(SimulationConfigFrom, UnknownKeyThrows) {
  ConfigFile cfg = ConfigFile::parse("banana = 3\n");
  EXPECT_THROW(simulation_config_from(cfg), InvalidArgument);
}

TEST(SimulationConfigFrom, BadAlgorithmThrows) {
  ConfigFile cfg = ConfigFile::parse("algorithm = magic\n");
  EXPECT_THROW(simulation_config_from(cfg), InvalidArgument);
}

TEST(SimulationConfigFrom, DefaultsAreSensible) {
  core::SimulationConfig sim = simulation_config_from(ConfigFile::parse(""));
  EXPECT_EQ(sim.lx, 4);
  EXPECT_EQ(sim.ly, 4);  // ly defaults to lx
  EXPECT_EQ(sim.engine.algorithm, core::StratAlgorithm::kPrePivot);
  EXPECT_EQ(sim.walker_batch, 1);  // every chain its own crowd
}

TEST(SimulationConfigFrom, WalkerBatchKeys) {
  // `walkers` (the chain count) is a driver-level key: the parser accepts it
  // but it never lands in the SimulationConfig.
  ConfigFile cfg = ConfigFile::parse("walkers = 8\nwalker_batch = 4\n");
  core::SimulationConfig sim = simulation_config_from(cfg);
  EXPECT_EQ(sim.walker_batch, 4);
  EXPECT_EQ(cfg.get_long("walkers", 1), 8);
  EXPECT_THROW(
      simulation_config_from(ConfigFile::parse("walker_batch = -2\n"))
          .validate(),
      InvalidArgument);
}

TEST(SimulationConfigFrom, ScheduleThatCannotRunFailsValidation) {
  for (const char* text :
       {"measure_interval = 0\n", "sweeps = -5\n", "warmup = -3\n",
        "measure_slice_interval = -1\n", "measure_dynamic_interval = -1\n"}) {
    EXPECT_THROW(simulation_config_from(ConfigFile::parse(text)).validate(),
                 InvalidArgument)
        << text;
  }
}

Args args_of(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(ConfigFileOverlay, FlagBeatsFileKey) {
  ConfigFile cfg = ConfigFile::parse("sweeps = 100\nlx = 6\n");
  cfg.overlay(args_of({"prog", "--sweeps", "4"}));
  const core::SimulationConfig sim = simulation_config_from(cfg);
  EXPECT_EQ(sim.measurement_sweeps, 4);
  EXPECT_EQ(sim.lx, 6);  // keys without a flag keep the file's value
}

TEST(ConfigFileOverlay, DashAndUnderscoreNameTheSameKey) {
  ConfigFile dash, under;
  dash.overlay(
      args_of({"prog", "--walker-batch", "4", "--fleet-max-reassigns", "5"}));
  under.overlay(
      args_of({"prog", "--walker_batch=4", "--fleet_max_reassigns=5"}));
  EXPECT_EQ(dash.entries(), under.entries());
  EXPECT_EQ(simulation_config_from(dash).walker_batch, 4);
  EXPECT_EQ(fleet_config_from(under).max_reassigns, 5);
}

TEST(ConfigFileOverlay, UnknownFlagThrowsNamingIt) {
  ConfigFile cfg;
  try {
    cfg.overlay(args_of({"prog", "--sweeps", "4", "--banana", "3"}));
    ADD_FAILURE() << "an unknown flag was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--banana"), std::string::npos)
        << e.what();
  }
  // Flags the caller skips (its own) never reach the config.
  ConfigFile skipped;
  skipped.overlay(args_of({"prog", "--banana", "3", "--seed", "5"}),
                  {"banana"});
  EXPECT_FALSE(skipped.has("banana"));
  EXPECT_EQ(skipped.get_long("seed", 0), 5);
}

TEST(ConfigFileOverlay, StabilizerFlagIsRejected) {
  ConfigFile cfg;
  EXPECT_THROW(cfg.overlay(args_of({"prog", "--stabilizer", "svdstack"})),
               InvalidArgument);
  cfg.overlay(args_of({"prog", "--algorithm", "svdstack"}));
  EXPECT_EQ(simulation_config_from(cfg).engine.algorithm,
            core::StratAlgorithm::kSvdStack);
}

}  // namespace
}  // namespace dqmc::cli
