// The Table-I call model, pinned: per-phase profiler call counts of short
// runs follow, walker by walker, the per-sweep model the wall-clock
// benchmark's traced mode uses to split a sweep into layers (calls_per_sweep
// in benchmark/traced.cpp, checked there by the dqmc_bench_smoke ctest). A
// change to how the sweep bills its phases fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dqmc/engine.h"
#include "dqmc/simulation.h"
#include "obs/event_log.h"
#include "parallel/topology.h"

namespace dqmc::core {
namespace {

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) { par::set_num_threads(threads); }
  ~ThreadCountGuard() { par::set_num_threads(0); }
};

/// The benchmark's tiny measurement workload: 4x4, L = 20 (m = 2),
/// checkerboard kinetic, equal-time measurement every slice and dynamic
/// every sweep.
SimulationConfig tiny_config() {
  SimulationConfig c;
  c.lx = c.ly = 4;
  c.model.u = 4.0;
  c.model.slices = 20;
  c.model.beta = 0.125 * 20;
  c.engine.cluster_size = 10;
  c.engine.delay_rank = 32;
  c.engine.kinetic = hubbard::KineticKind::kCheckerboard;
  c.measure_slice_interval = 1;
  c.measure_dynamic_interval = 1;
  c.warmup_sweeps = 1;
  c.measurement_sweeps = 2;
  c.bins = 2;
  c.seed = 1002;
  return c;
}

/// Slices whose site loop accepted a flip, over the run's sweeps: each ends
/// with a delayed-update flush.
double flushed_slices(const SimulationConfig& cfg) {
  const Lattice lattice = cfg.make_lattice();
  DqmcEngine engine(lattice, cfg.model, cfg.engine, cfg.seed);
  engine.initialize();
  idx flushed = 0;
  for (idx s = 0; s < cfg.warmup_sweeps + cfg.measurement_sweeps; ++s) {
    const HSField before = engine.field();
    engine.sweep([&](idx l) {
      for (idx i = 0; i < lattice.num_sites(); ++i) {
        if (engine.field()(l, i) != before(l, i)) {
          ++flushed;
          break;
        }
      }
    });
  }
  return static_cast<double>(flushed);
}

void expect_calls(const Profiler& prof, Phase phase, double want) {
  EXPECT_EQ(static_cast<double>(prof.calls(phase)), want) << phase_name(phase);
}

TEST(CallModel, EveryWalkerFollowsTheBenchmarkModel) {
  ThreadCountGuard guard(2);
  for (const idx walkers : {1, 2}) {
    SimulationConfig cfg = tiny_config();
    cfg.walker_batch = walkers;
    const SimulationResults res = run_parallel_simulation(cfg, walkers);
    const Profiler& p = res.profiler;
    // Summed over the crowd's walkers (seeds seed, seed + 1, ...), each
    // billed alike. Per sweep: L site loops (+ one flush per spin on a
    // slice that accepted), 2 boundary closures per cluster (one per spin),
    // one cluster rebuild per cluster, 2 wraps per slice, L equal-time
    // measurements plus one dynamic one. initialize() closes boundary 0 and
    // builds every cluster; the last sweep's deferred rebuild is billed
    // only by the next boundary.
    double flushed = 0.0;
    for (idx w = 0; w < walkers; ++w) {
      SimulationConfig chain = cfg;
      chain.seed = cfg.seed + static_cast<std::uint64_t>(w);
      flushed += flushed_slices(chain);
    }
    const double W = static_cast<double>(walkers);
    const double sweeps =
        static_cast<double>(cfg.warmup_sweeps + cfg.measurement_sweeps);
    const double measured = static_cast<double>(cfg.measurement_sweeps);
    const double L = static_cast<double>(cfg.model.slices);
    const double m = static_cast<double>(
        (cfg.model.slices + cfg.engine.cluster_size - 1) /
        cfg.engine.cluster_size);
    SCOPED_TRACE("walkers " + std::to_string(walkers));
    expect_calls(p, Phase::kDelayedUpdate, W * sweeps * L + 2 * flushed);
    expect_calls(p, Phase::kStratification, W * (sweeps * 2 * m + 2));
    expect_calls(p, Phase::kClustering, W * (sweeps * m + m - 1));
    expect_calls(p, Phase::kWrapping, W * sweeps * 2 * L);
    expect_calls(p, Phase::kMeasurement, W * measured * (L + 1));
  }
}

TEST(PhaseProfile, SumsToAtMostWallTimeAtTwoThreads) {
  // Each phase is billed once, on the engine's thread, around the join of
  // the two spins' work: a solo chain's exclusive phase times sum to at
  // most its wall time at any thread budget. (Billing each spin task's own
  // time and summing over-counted by the spins' overlap.)
  ThreadCountGuard guard(2);
  SimulationConfig cfg = tiny_config();
  cfg.lx = cfg.ly = 8;
  cfg.model.slices = 40;
  cfg.model.beta = 4.0;
  cfg.engine.kinetic = hubbard::KineticKind::kDense;
  cfg.measure_slice_interval = 0;
  cfg.measure_dynamic_interval = 0;
  cfg.warmup_sweeps = 2;
  cfg.measurement_sweeps = 4;
  const SimulationResults res = run_simulation(cfg);
  EXPECT_GT(res.profiler.total_seconds(), 0.0);
  EXPECT_LE(res.profiler.total_seconds(), res.elapsed_seconds);
}

TEST(PhaseProfile, TraceSpansSumToInclusiveSeconds) {
  // The profiler's bill and the "phase" trace spans come from the same two
  // clock reads per bracket: per phase, the spans' durations sum to the
  // profiler's inclusive seconds.
  obs::EventLog& log = obs::event_log();
  log.reset();
  log.set_tracing(true);
  const SimulationResults res = run_simulation(tiny_config());
  log.set_tracing(false);
  ASSERT_EQ(log.dropped(), 0u);
  const obs::Json events = log.trace_json().at("traceEvents");
  log.reset();
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const auto phase = static_cast<Phase>(p);
    double span_us = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::Json& e = events[i];
      if (e.has("cat") && e.at("cat").str() == "phase" &&
          e.at("name").str() == phase_name(phase)) {
        span_us += e.at("dur").number();
      }
    }
    const double billed_us = res.profiler.inclusive_seconds(phase) * 1e6;
    EXPECT_NEAR(span_us, billed_us, 1e-9 * std::max(1.0, billed_us))
        << phase_name(phase);
  }
  EXPECT_GT(res.profiler.inclusive_seconds(Phase::kStratification), 0.0);
}

}  // namespace
}  // namespace dqmc::core
