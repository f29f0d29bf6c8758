#include "dqmc/run_manifest.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "parallel/task_runtime.h"
#include "parallel/topology.h"

namespace dqmc::core {

namespace {

obs::Json config_json(const SimulationConfig& cfg) {
  return obs::Json::object()
      .set("lx", cfg.lx)
      .set("ly", cfg.ly)
      .set("layers", cfg.layers)
      .set("t", cfg.model.t)
      .set("t_perp", cfg.model.t_perp)
      .set("u", cfg.model.u)
      .set("mu", cfg.model.mu)
      .set("beta", cfg.model.beta)
      .set("slices", cfg.model.slices)
      .set("dtau", cfg.model.dtau())
      .set("algorithm", strat_algorithm_name(cfg.engine.algorithm))
      .set("cluster_size", cfg.engine.cluster_size)
      .set("delay_rank", cfg.engine.delay_rank)
      .set("qr_block", cfg.engine.qr_block)
      .set("backend", backend::backend_kind_name(cfg.engine.backend))
      .set("warmup_sweeps", cfg.warmup_sweeps)
      .set("measurement_sweeps", cfg.measurement_sweeps)
      .set("measure_interval", cfg.measure_interval)
      .set("measure_slice_interval", cfg.measure_slice_interval)
      .set("measure_dynamic_interval", cfg.measure_dynamic_interval)
      .set("bins", cfg.bins)
      .set("walker_batch", cfg.walker_batch)
      .set("kinetic", hubbard::kinetic_kind_name(cfg.engine.kinetic));
}

obs::Json phases_json(const Profiler& prof) {
  obs::Json phases = obs::Json::object();
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const Phase phase = static_cast<Phase>(p);
    phases.set(phase_name(phase),
               obs::Json::object()
                   .set("seconds", prof.seconds(phase))
                   .set("inclusive_seconds", prof.inclusive_seconds(phase))
                   .set("percent", prof.percent(phase))
                   .set("calls", prof.calls(phase)));
  }
  phases.set("total_seconds", prof.total_seconds());
  return phases;
}

obs::Json metrics_json(const SimulationResults& r) {
  const SweepStats& sw = r.sweep_stats;
  const StratStats& st = r.strat_stats;
  obs::Json m = obs::Json::object()
                    .set("accept_rate", sw.acceptance())
                    .set("proposed", sw.proposed)
                    .set("accepted", sw.accepted)
                    .set("greens_evaluations", st.evaluations)
                    .set("qr_steps", st.steps)
                    .set("pivot_displacement", st.pivot_displacement);
  // The live registry snapshot (counters/gauges/histograms recorded by the
  // engine, gpusim device, delayed updates, ...).
  m.set("registry", obs::metrics().json_value());
  return m;
}

/// Compute-backend accounting: what the engine hot path cost on its
/// backend. `device.*` exposes the virtual-timeline view (exposed_wait is
/// stall time not hidden behind host compute — the pipelining figure of
/// merit; it is NOT compute + transfer, which would double-count work that
/// overlapped the host).
obs::Json backend_json(const SimulationResults& r) {
  const backend::BackendStats& s = r.backend_stats;
  return obs::Json::object()
      .set("name", r.backend_name)
      .set("compute_seconds", s.compute_seconds)
      .set("transfer_seconds", s.transfer_seconds)
      .set("bytes_h2d", s.bytes_h2d)
      .set("bytes_d2h", s.bytes_d2h)
      .set("kernel_launches", s.kernel_launches)
      .set("transfers", s.transfers)
      .set("synchronizations", s.synchronizations)
      .set("wrap_uploads_skipped", r.wrap_uploads_skipped)
      .set("device", obs::Json::object()
                         .set("exposed_wait_seconds", s.exposed_wait_seconds)
                         .set("pipeline_seconds", s.pipeline_seconds())
                         .set("total_seconds", s.total_seconds()));
}

/// Task-runtime scheduling counters (see docs/PERFORMANCE.md on reading
/// them: stolen/helped ≪ executed means tasks mostly ran where spawned).
obs::Json runtime_json() {
  const par::TaskRuntime& rt = par::TaskRuntime::global();
  const par::RuntimeStats st = rt.stats();
  return obs::Json::object()
      .set("thread_budget", par::num_threads())
      .set("workers_alive", rt.workers())
      .set("tasks_spawned", st.tasks_spawned)
      .set("tasks_executed", st.tasks_executed)
      .set("tasks_stolen", st.tasks_stolen)
      .set("tasks_helped", st.tasks_helped)
      .set("groups", st.groups);
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// {"bits": "<hex IEEE-754 pattern>", "value": <rounded readable>} — the
/// bits field is what the golden diff compares; the value is for humans.
obs::Json stable_double(double v) {
  char readable[32];
  std::snprintf(readable, sizeof(readable), "%.9g", v);
  return obs::Json::object()
      .set("bits", hex_u64(std::bit_cast<std::uint64_t>(v)))
      .set("value", std::string(readable));
}

}  // namespace

obs::Json run_manifest(const SimulationResults& results) {
  const obs::EventLog& log = obs::event_log();
  return obs::Json::object()
      .set("manifest", obs::Json::object()
                           .set("program", "dqmcpp")
                           .set("format_version", 1)
                           .set("seed", results.config.seed)
                           .set("algorithm", strat_algorithm_name(
                                                 results.config.engine.algorithm))
                           .set("hardware_threads", par::num_threads())
                           .set("elapsed_seconds", results.elapsed_seconds)
                           .set("trajectory_hash",
                                hex_u64(results.trajectory_hash)))
      .set("config", config_json(results.config))
      .set("phases", phases_json(results.profiler))
      .set("metrics", metrics_json(results))
      .set("backend", backend_json(results))
      .set("runtime", runtime_json())
      .set("fault", results.fault_report.json_value())
      .set("health", obs::health().json_value())
      .set("events", obs::Json::object()
                         .set("tracing", log.tracing())
                         .set("armed", log.armed())
                         .set("recorded", log.recorded())
                         .set("dropped", log.dropped())
                         .set("dump_path", log.dump_path()))
      // Walker-crowd shape of the run: crowd size and crowd count, both 0
      // when the chains stepped unbatched.
      .set("batch", obs::Json::object()
                        .set("walkers", results.batch_walkers)
                        .set("crowds", results.batch_crowds));
}

obs::Json golden_manifest(const SimulationResults& results) {
  const fault::FaultReport& fr = results.fault_report;
  const MeasurementAccumulator& meas = results.measurements;
  obs::Json fault_j = obs::Json::object()
                          .set("faults", fr.faults)
                          .set("retries", fr.retries)
                          .set("restarts", fr.restarts)
                          .set("degradations", fr.degradations)
                          .set("health_trips", fr.health_trips)
                          .set("checkpoints", fr.checkpoints)
                          .set("checkpoint_faults", fr.checkpoint_faults)
                          .set("degraded", fr.degraded)
                          .set("final_backend", fr.final_backend)
                          .set("events", static_cast<std::uint64_t>(
                                             fr.events.size()));
  return obs::Json::object()
      .set("golden_version", 1)
      .set("seed", results.config.seed)
      .set("config", config_json(results.config))
      .set("trajectory_hash", hex_u64(results.trajectory_hash))
      .set("samples", meas.samples())
      .set("sign", stable_double(meas.average_sign().mean))
      .set("density", stable_double(meas.density().mean))
      .set("double_occupancy", stable_double(meas.double_occupancy().mean))
      .set("kinetic_energy", stable_double(meas.kinetic_energy().mean))
      .set("moment_sq", stable_double(meas.moment_sq().mean))
      .set("fault", std::move(fault_j));
}

void write_run_manifest(const SimulationResults& results,
                        const std::string& path) {
  write_run_manifest(run_manifest(results), path);
}

void write_run_manifest(const obs::Json& manifest, const std::string& path) {
  std::ofstream out(path);
  DQMC_CHECK_MSG(out.good(), "cannot open manifest file: " + path);
  out << manifest.dump(2) << '\n';
  out.flush();
  DQMC_CHECK_MSG(out.good(), "failed writing manifest file: " + path);
}

}  // namespace dqmc::core
