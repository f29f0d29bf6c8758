// Overhead of the observability layer (obs::EventLog / obs::MetricsRegistry /
// obs::HealthMonitor) on the DQMC hot paths.
//
// The contract is "zero overhead when disabled": every instrumented call
// site pays exactly one relaxed atomic load while tracing/metrics are off.
// The BM_Sweep pair measures the end-to-end sweep loop both ways — with
// everything disabled it must sit within noise of the pre-instrumentation
// baseline; with everything enabled the cost stays a few percent.
// The fail-point registry (src/fault) carries the same contract: a
// DQMC_FAILPOINT site costs one relaxed atomic load while nothing is armed
// — BM_FailpointDisarmed measures the hot-path probe, and
// BM_FailpointArmedOtherSite shows the armed-registry cost when some OTHER
// site is armed (the probed site still must not slow down beyond the
// registry lookup). Compile-out (-DDQMC_NO_FAILPOINTS) is proven by
// tests/fault/test_failpoint_compileout.
// The event log (src/obs/event_log.h) extends the contract: a DQMC_EVENT
// site costs one relaxed atomic load while the log is neither armed nor
// tracing (BM_EventDisarmed; budget < 1% of a sweep — the CTest guard is
// tests/obs/test_event_overhead), and an armed event (BM_EventArmed) or a
// traced span (BM_TraceSpanEnabled) is one lock-free store into the calling
// thread's ring.
#include <benchmark/benchmark.h>

#include "common/profiler.h"
#include "dqmc/simulation.h"
#include "fault/failpoint.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace {

using namespace dqmc;

void set_all_obs(bool enabled) {
  obs::event_log().set_tracing(enabled);
  obs::metrics().set_enabled(enabled);
  obs::health().set_enabled(enabled);
}

void BM_ScopedPhase(benchmark::State& state) {
  set_all_obs(false);
  Profiler prof;
  for (auto _ : state) {
    ScopedPhase phase(&prof, Phase::kOther);
    benchmark::DoNotOptimize(&prof);
  }
  set_all_obs(false);
}
BENCHMARK(BM_ScopedPhase);

void BM_TraceSpanDisabled(benchmark::State& state) {
  obs::event_log().set_tracing(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::EventLog& log = obs::event_log();
  log.set_tracing(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  log.set_tracing(false);
  log.reset();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_CounterDisabled(benchmark::State& state) {
  obs::metrics().set_enabled(false);
  for (auto _ : state) {
    obs::metrics().count("bench.counter");
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  obs::metrics().set_enabled(true);
  for (auto _ : state) {
    obs::metrics().count("bench.counter");
  }
  obs::metrics().set_enabled(false);
  obs::metrics().reset();
}
BENCHMARK(BM_CounterEnabled);

void BM_EventDisarmed(benchmark::State& state) {
  obs::event_log().set_armed(false);
  for (auto _ : state) {
    DQMC_EVENT(obs::EventKind::kNote, "bench.event");
  }
}
BENCHMARK(BM_EventDisarmed);

void BM_EventArmed(benchmark::State& state) {
  obs::EventLog& log = obs::event_log();
  log.set_armed(true);
  for (auto _ : state) {
    DQMC_EVENT(obs::EventKind::kNote, "bench.event", "armed", 1.0, 2.0);
  }
  log.set_armed(false);
  log.reset();
}
BENCHMARK(BM_EventArmed);

void BM_FailpointDisarmed(benchmark::State& state) {
  fault::failpoints().disarm_all();
  for (auto _ : state) {
    DQMC_FAILPOINT("bench.site");
  }
}
BENCHMARK(BM_FailpointDisarmed);

void BM_FailpointArmedOtherSite(benchmark::State& state) {
  // Arm a DIFFERENT site persistently from hit 1; the probed site now pays
  // the registry lookup on every hit but never fires.
  fault::failpoints().disarm_all();
  fault::failpoints().arm("bench.other", 1,
                          fault::FailPointRegistry::kPersistent);
  for (auto _ : state) {
    DQMC_FAILPOINT("bench.site");
  }
  fault::failpoints().disarm_all();
}
BENCHMARK(BM_FailpointArmedOtherSite);

// End-to-end: one full 4x4 sweep with the observability layer off vs on.
// The two medians must agree within noise when obs is off (the CTest variant
// of this guard lives in tests/obs/test_event_log.cpp).
void BM_Sweep(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  set_all_obs(obs_on);

  core::SimulationConfig cfg;
  cfg.lx = cfg.ly = 4;
  cfg.model.u = 4.0;
  cfg.model.beta = 2.0;
  cfg.model.slices = 20;
  const hubbard::Lattice lattice = cfg.make_lattice();
  core::DqmcEngine engine(lattice, cfg.model, cfg.engine, /*seed=*/7);
  engine.initialize();

  for (auto _ : state) {
    core::SweepStats stats = engine.sweep();
    benchmark::DoNotOptimize(stats.accepted);
    // Keep the ring from wrapping so the enabled variant measures
    // steady-state emission.
    if (obs_on && obs::event_log().recorded() > (1u << 14)) {
      obs::event_log().reset();
    }
  }

  set_all_obs(false);
  obs::event_log().reset();
  obs::metrics().reset();
  obs::health().reset();
}
BENCHMARK(BM_Sweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
