// dqmc_run: the production driver — one simulation specified by a
// QUEST-style input file, run as a single chain, as a crowd of chains in
// this process, or sharded over a fleet of worker processes.
//
//   ./dqmc_run [--config sim.in] [--<key> value ...] [driver flags]
//
// Example input file:
//   # half-filled 8x8 Hubbard model
//   lx     = 8
//   u      = 4.0
//   beta   = 5.0
//   slices = 50         # dtau = 0.1
//   warmup = 200
//   sweeps = 1000
//   algorithm = prepivot          # or qrp, or svdstack (docs/STABILITY.md)
//   checkpoint_out = run1.ckpt    # save the Markov state at the end
//   # checkpoint_in = run0.ckpt   # ...or resume a previous run
//   (checkpoint files need a single chain: walkers > 1 rejects them)
//
// Every config key is also a flag: `--<key> value`, the key spelled with
// `-` or `_`, overrides the file's key (`--walker-batch 4` is
// `walker_batch = 4`), and an unknown flag is rejected like an unknown key.
// Bad input (an unknown flag or key, a malformed or out-of-range value, a
// missing or malformed checkpoint_in) exits with status 2 and one line
// `dqmc_run: <message>` on stderr; a `checkpoint_out` that cannot be
// written, even after one retry, exits with status 1 and one such line
// naming the path.
// With no --config the parser defaults run: a 4x4 lattice, U = 4, beta = 4,
// L = 40, 100 warmup + 200 measurement sweeps.
//
// The keys pick the run, always under the walker supervisor
// (docs/RELIABILITY.md), with the `failpoints` spec armed in this process:
//   fleet_workers N >= 1   deal `walkers` chains, one at a time, to N
//                          forked worker processes; walker_batch does not
//                          apply (docs/FLEET.md; the other fleet_* keys
//                          need it)
//   walkers N > 1          run N chains here (seeds seed .. seed+N-1) and
//                          merge their bins; they run in crowds of up to
//                          walker_batch W (default 1) that share one
//                          backend and checkpoint together, each walker
//                          swept on its own, the crowds side by side
//                          (docs/PERFORMANCE.md)
//   otherwise              one chain
// Every mode yields the same trajectory_hash for the same chains.
//
// Driver flags name per-invocation state, not the simulation:
//   --config FILE            the input file
//   --progress               live one-line progress/ETA display
//   --metrics-json FILE      write the run manifest (docs/OBSERVABILITY.md);
//                            a fleet run adds its "fleet" section
//   --trace-json FILE        Chrome-trace timeline of every pipeline span
//                            and forensic event (not in fleet runs:
//                            workers export no trace)
//   --telemetry-jsonl FILE   stream progress/ETA/throughput JSON lines
//   --telemetry-interval MS  min spacing between telemetry records (250)
//   --crash-dump FILE        event-log crash dump on a fault, fatal signal
//                            or uncaught exception (default crash_dump.json;
//                            empty disables)
//   --worker-failpoint SPEC  fleet drill: arm SPEC inside worker processes
//   --failpoint-worker I     ...only in worker I (-1 = all)
// A fleet run reads as one run: one telemetry stream, and metrics, health
// and phases merged from every chain. Only crash dumps stay per worker:
// each worker dumps to <base>.w<index>.p<pid>.json for the --crash-dump
// <base>.json, named in the manifest's fleet worker_table.
#include <cinttypes>
#include <cstdio>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "cli/args.h"
#include "cli/config_file.h"
#include "cli/table.h"
#include "common/stopwatch.h"
#include "dqmc/run_manifest.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fault/failpoint.h"
#include "fleet/coordinator.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace {

using namespace dqmc;
using linalg::idx;

/// Everything the flags and the input file ask for.
struct Invocation {
  core::SimulationConfig cfg;
  core::SupervisorPolicy policy;
  idx walkers = 1;
  bool fleet = false;
  fleet::FleetConfig fc;
  std::string failpoints;
  std::string trace_path, metrics_path, telemetry_path, dump_path;
  bool human_progress = false;
  double telemetry_interval_ms = 250;
};

/// Throws InvalidArgument naming the offending flag or key.
Invocation parse(int argc, char** argv) {
  const cli::Args args(argc, argv);
  cli::ConfigFile file;
  if (args.has("config")) file = cli::ConfigFile::load(args.get("config", ""));
  file.overlay(args, {"config", "progress", "metrics-json", "trace-json",
                      "telemetry-jsonl", "telemetry-interval", "crash-dump",
                      "worker-failpoint", "failpoint-worker"});

  Invocation inv;
  inv.cfg = cli::simulation_config_from(file);
  inv.policy = cli::supervisor_policy_from(file);
  inv.walkers = file.get_long("walkers", 1);
  inv.cfg.validate(inv.walkers);

  inv.trace_path = args.get("trace-json", "");
  inv.metrics_path = args.get("metrics-json", "");
  inv.telemetry_path = args.get("telemetry-jsonl", "");
  inv.dump_path = args.get("crash-dump", "crash_dump.json");
  inv.human_progress = args.get_flag("progress");
  inv.telemetry_interval_ms =
      static_cast<double>(args.get_long("telemetry-interval", 250));
  inv.failpoints = file.get("failpoints", "");

  inv.fleet = file.get_long("fleet_workers", 0) >= 1;
  if (inv.fleet) {
    inv.fc = cli::fleet_config_from(file);
    inv.fc.worker_failpoints = args.get("worker-failpoint", "");
    inv.fc.failpoint_worker =
        static_cast<int>(args.get_long("failpoint-worker", -1));
    DQMC_CHECK_INPUT(inv.trace_path.empty(),
                     "--trace-json is not supported in fleet runs: workers "
                     "export no trace");
  } else {
    for (const auto& [key, value] : file.entries()) {
      DQMC_CHECK_INPUT(
          key.rfind("fleet_", 0) != 0 || key == "fleet_workers",
          key + " needs fleet_workers >= 1");
    }
    DQMC_CHECK_INPUT(!args.has("worker-failpoint") &&
                         !args.has("failpoint-worker"),
                     "--worker-failpoint and --failpoint-worker need "
                     "fleet_workers >= 1");
  }
  return inv;
}

}  // namespace

int main(int argc, char** argv) {
  Invocation inv;
  try {
    inv = parse(argc, argv);
    // Arming happens HERE, not in the parser: loading a config never has
    // fail-point side effects unless this driver asks for them.
    if (!inv.failpoints.empty()) fault::failpoints().arm_spec(inv.failpoints);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "dqmc_run: %s\n", e.what());
    return 2;
  }
  const core::SimulationConfig& cfg = inv.cfg;
  const core::SupervisorPolicy& policy = inv.policy;
  const idx walkers = inv.walkers;
  const bool fleet = inv.fleet;
  const fleet::FleetConfig& fc = inv.fc;
  const std::string& trace_path = inv.trace_path;
  const std::string& metrics_path = inv.metrics_path;
  const std::string& telemetry_path = inv.telemetry_path;
  const std::string& dump_path = inv.dump_path;

  // Metrics and health are cheap; keep them on for the summary and manifest.
  // Tracing records every span, so it is opt-in via --trace-json. The event
  // log is always armed: on a fault the supervisor flushes the dump; on a
  // fatal signal or uncaught exception the crash handlers also flush the
  // trace/metrics artifacts that would otherwise be lost.
  obs::metrics().set_enabled(true);
  obs::health().set_enabled(true);
  obs::EventLog& log = obs::event_log();
  log.set_tracing(!trace_path.empty());
  log.set_armed(true);
  log.set_current_thread_name("main");
  log.set_dump_path(dump_path);
  log.set_export_paths(trace_path, metrics_path);
  log.install_crash_handlers();

  std::printf("lattice %lldx%lldx%lld  t=%.3f t'=%.3f U=%.3f mu=%.3f "
              "beta=%.3f L=%lld (dtau=%.4f)\n",
              static_cast<long long>(cfg.lx), static_cast<long long>(cfg.ly),
              static_cast<long long>(cfg.layers), cfg.model.t,
              cfg.model.t_perp, cfg.model.u, cfg.model.mu, cfg.model.beta,
              static_cast<long long>(cfg.model.slices), cfg.model.dtau());
  std::printf("%lld warmup + %lld measurement sweeps, algorithm=%s, "
              "k=%lld, d=%lld, seed=%llu, backend=%s\n",
              static_cast<long long>(cfg.warmup_sweeps),
              static_cast<long long>(cfg.measurement_sweeps),
              core::strat_algorithm_name(cfg.engine.algorithm),
              static_cast<long long>(cfg.engine.cluster_size),
              static_cast<long long>(cfg.engine.delay_rank),
              static_cast<unsigned long long>(cfg.seed),
              backend::backend_kind_name(cfg.engine.backend));
  if (fleet) {
    std::printf("%lld walkers, one at a time, over %lld worker processes\n",
                static_cast<long long>(walkers),
                static_cast<long long>(fc.workers));
  } else if (walkers > 1) {
    std::printf("%lld walkers in crowds of up to %lld\n",
                static_cast<long long>(walkers),
                static_cast<long long>(cfg.walker_batch));
  }
  std::printf("\n");

  // One reporter aggregates every chain-sweep unit — a single chain,
  // concurrent chains, crowds, or the fleet's committed segments —
  // into the human line (--progress) and the JSONL stream.
  std::unique_ptr<obs::ProgressReporter> reporter;
  core::ProgressFn progress = nullptr;
  if (inv.human_progress || !telemetry_path.empty()) {
    obs::ProgressOptions popt;
    popt.jsonl_path = telemetry_path;
    popt.interval_ms = inv.telemetry_interval_ms;
    popt.human = inv.human_progress;
    popt.label = "dqmc_run";
    popt.total_sweeps =
        static_cast<std::uint64_t>(walkers) *
        static_cast<std::uint64_t>(cfg.warmup_sweeps + cfg.measurement_sweeps);
    popt.warmup_sweeps = static_cast<std::uint64_t>(walkers) *
                         static_cast<std::uint64_t>(cfg.warmup_sweeps);
    popt.walkers = static_cast<int>(walkers);
    reporter = std::make_unique<obs::ProgressReporter>(popt);
    progress = [&reporter](idx, idx, bool warmup) {
      reporter->on_sweep(warmup);
    };
  }

  std::optional<fleet::FleetReport> fleet_report;
  std::optional<core::SimulationResults> ran;
  try {
    ran.emplace([&] {
      if (fleet) {
        fleet::FleetResult fr =
            fleet::run_fleet(cfg, policy, fc, walkers, progress);
        fleet_report = std::move(fr.fleet);
        return std::move(fr.results);
      }
      return walkers > 1
                 ? core::run_supervised_parallel(cfg, policy, walkers, progress)
                 : core::run_supervised_simulation(cfg, policy, progress);
    }());
  } catch (const InputError& e) {
    // An input file the run reads (checkpoint_in) is missing or malformed.
    std::fprintf(stderr, "dqmc_run: %s\n", e.what());
    return 2;
  } catch (const fault::IoError& e) {
    // A requested output could not be written: fail with the path.
    std::fprintf(stderr, "dqmc_run: %s\n", e.what());
    return 1;
  }
  const core::SimulationResults& res = *ran;
  if (reporter) reporter->finish();
  const auto& m = res.measurements;

  cli::Table table({"observable", "value"});
  const auto row = [&table](const char* name, const auto& estimate) {
    table.add_row({name, cli::Table::pm(estimate.mean, estimate.error)});
  };
  row("density", m.density());
  row("double occupancy", m.double_occupancy());
  row("hopping energy / site", m.kinetic_energy());
  row("local moment <m_z^2>", m.moment_sq());
  row("S(pi,pi)", m.af_structure_factor());
  row("P_s (s-wave pairing)", m.pair_s());
  row("P_d (d-wave pairing)", m.pair_d());
  row("average sign", m.average_sign());
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(res.trajectory_hash));
  table.add_row({"trajectory hash", hash});
  table.print();

  std::printf("\nelapsed %s\n", format_seconds(res.elapsed_seconds).c_str());
  std::printf("\n%s", res.profiler.report().c_str());
  std::printf("\n%s", obs::metrics().report().c_str());

  const backend::BackendStats& bs = res.backend_stats;
  std::printf("\nbackend %s: compute %s, transfer %s, %llu launches, "
              "%llu transfers, exposed wait %s, %llu wrap uploads skipped\n",
              res.backend_name.c_str(),
              format_seconds(bs.compute_seconds).c_str(),
              format_seconds(bs.transfer_seconds).c_str(),
              static_cast<unsigned long long>(bs.kernel_launches),
              static_cast<unsigned long long>(bs.transfers),
              format_seconds(bs.exposed_wait_seconds).c_str(),
              static_cast<unsigned long long>(res.wrap_uploads_skipped));

  // A signal with no samples reads n/a.
  const obs::HealthMonitor::Summary hs = obs::health().summary();
  const auto sampled = [](std::uint64_t count, const char* fmt, double v) {
    char text[32] = "n/a";
    if (count > 0) std::snprintf(text, sizeof text, fmt, v);
    return std::string(text);
  };
  std::printf("\nhealth: wrap drift max %s, average sign %s, violations "
              "%llu\n",
              sampled(hs.wrap_drift.count, "%.3e", hs.wrap_drift.max).c_str(),
              sampled(hs.sign_samples, "%.3f", hs.average_sign()).c_str(),
              static_cast<unsigned long long>(hs.violations));

  const fault::FaultReport& fr = res.fault_report;
  std::printf("fault: %llu observed, %llu retries, %llu restarts, "
              "%llu degradations, final backend %s%s\n",
              static_cast<unsigned long long>(fr.faults),
              static_cast<unsigned long long>(fr.retries),
              static_cast<unsigned long long>(fr.restarts),
              static_cast<unsigned long long>(fr.degradations),
              fr.final_backend.c_str(), fr.degraded ? " (degraded)" : "");
  std::vector<fault::FaultEvent> events = fr.events;
  if (fleet_report) {
    const fleet::FleetReport& f = *fleet_report;
    std::printf("fleet: %lld chains over %lld workers, %" PRIu64 " frames "
                "(%" PRIu64 " bytes), %" PRIu64 " snapshots, %" PRIu64
                " deaths, %" PRIu64 " reassignments, %" PRIu64
                " protocol faults\n",
                static_cast<long long>(f.chains),
                static_cast<long long>(f.workers), f.frames_received,
                f.bytes_received, f.snapshots, f.worker_deaths,
                f.reassignments, f.protocol_faults);
    for (const fleet::WorkerSummary& w : f.worker_summaries) {
      std::printf("  worker %d (pid %ld): %" PRIu64 " shards, %" PRIu64
                  " frames, %s\n",
                  w.index, w.pid, w.shards_completed, w.frames_received,
                  w.fate.c_str());
    }
    events.insert(events.end(), f.events.begin(), f.events.end());
  }
  for (const fault::FaultEvent& ev : events) {
    std::printf("  [sweep %lld] %s (%s) -> %s: %s\n",
                static_cast<long long>(ev.sweep), ev.site.c_str(),
                ev.fault_class.c_str(), ev.action.c_str(), ev.detail.c_str());
  }

  if (!metrics_path.empty()) {
    obs::Json doc = core::run_manifest(res);
    if (fleet_report) doc.set("fleet", fleet_report->json_value());
    core::write_run_manifest(doc, metrics_path);
    std::printf("manifest written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    log.write_json(trace_path);
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(log.recorded()),
                static_cast<unsigned long long>(log.dropped()));
  }
  return 0;
}
