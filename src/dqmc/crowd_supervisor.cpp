#include "dqmc/crowd_supervisor.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "dqmc/checkpoint.h"
#include "fault/failpoint.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"

namespace dqmc::core {

void SupervisorPolicy::validate() const {
  DQMC_CHECK_INPUT(max_retries >= 0, "max_retries must be >= 0");
  DQMC_CHECK_INPUT(backoff_base_ms >= 0.0 && backoff_max_ms >= backoff_base_ms,
                   "backoff interval is malformed");
}

namespace detail {

CrowdMeasurements::CrowdMeasurements(const SimulationConfig& config,
                                     idx walkers)
    : config_(config),
      lattice_(config.make_lattice()),
      equal_time_(static_cast<std::size_t>(walkers)),
      dynamic_(static_cast<std::size_t>(walkers)) {
  workspaces_.reserve(static_cast<std::size_t>(walkers));
  for (idx w = 0; w < walkers; ++w) {
    workspaces_.push_back(std::make_unique<MeasurementWorkspace>(lattice_));
  }
}

std::vector<SweepStats> CrowdMeasurements::sweep(WalkerBatch& batch, idx m) {
  const idx walkers = batch.walkers();
  const auto ws = [this](idx w) -> MeasurementWorkspace& {
    return *workspaces_[static_cast<std::size_t>(w)];
  };
  const auto measure_now = [&](idx w) {
    DqmcEngine& engine = batch.engine(w);
    ScopedPhase phase(&engine.profiler(), Phase::kMeasurement);
    equal_time_[static_cast<std::size_t>(w)].emplace_back(
        measure_equal_time(lattice_, engine.params(), engine.greens(Spin::Up),
                           engine.greens(Spin::Down), ws(w)),
        engine.config_sign());
  };

  std::vector<SweepStats> stats;
  const bool measuring = m % config_.measure_interval == 0;
  if (measuring && config_.measure_slice_interval > 0) {
    stats = batch.sweep_all([&](idx w, idx slice) {
      if (slice % config_.measure_slice_interval == 0) measure_now(w);
    });
  } else {
    stats = batch.sweep_all();
    if (measuring) {
      for (idx w = 0; w < walkers; ++w) measure_now(w);
    }
  }

  if (config_.measure_dynamic_interval > 0 &&
      m % config_.measure_dynamic_interval == 0) {
    // Both spins' time-displaced Green's functions streamed segment by
    // segment over the side the sweep just stored in the engine's boundary
    // stacks, billed to the walker's measurement phase.
    for (idx w = 0; w < walkers; ++w) {
      DqmcEngine& engine = batch.engine(w);
      ScopedPhase phase(&engine.profiler(), Phase::kMeasurement);
      dynamic_[static_cast<std::size_t>(w)].emplace_back(
          measure_dynamic(lattice_, config_.model.dtau(), engine, ws(w)),
          engine.config_sign());
    }
  }
  return stats;
}

void CrowdMeasurements::commit(idx w, SimulationResults& results) {
  auto& equal_time = equal_time_[static_cast<std::size_t>(w)];
  auto& dynamic = dynamic_[static_cast<std::size_t>(w)];
  for (const auto& [sample, sign] : equal_time) {
    results.measurements.add(sample, sign);
  }
  for (const auto& [sample, sign] : dynamic) results.dynamic.add(sample, sign);
  equal_time.clear();
  dynamic.clear();
}

void CrowdMeasurements::discard() {
  for (auto& s : equal_time_) s.clear();
  for (auto& s : dynamic_) s.clear();
}

}  // namespace detail

namespace {

/// A health-monitor trip surfaced as an exception so it routes through the
/// same per-segment recovery as thrown faults.
class HealthTripError : public Error {
 public:
  explicit HealthTripError(std::uint64_t violations)
      : Error("health monitor tripped (" + std::to_string(violations) +
              " violations)") {}
};

/// Deterministic exponential backoff: base * 2^(attempt-1), capped.
double backoff_ms(const SupervisorPolicy& policy, int attempt) {
  double ms = policy.backoff_base_ms;
  for (int i = 1; i < attempt; ++i) ms *= 2.0;
  return ms < policy.backoff_max_ms ? ms : policy.backoff_max_ms;
}

/// Where a caught fault came from and what kind it is; `walker` is the
/// faulting walker of the crowd, or -1 for a crowd-level fault.
struct Classified {
  std::string site;
  fault::FaultClass cls;
  idx walker = -1;
};

Classified classify(const std::exception& e) {
  if (const auto* w = dynamic_cast<const WalkerFault*>(&e)) {
    return {w->site(), w->fault_class(), w->walker()};
  }
  if (const auto* f = dynamic_cast<const fault::InjectedFault*>(&e)) {
    return {f->site(), f->fault_class()};
  }
  if (dynamic_cast<const HealthTripError*>(&e)) {
    return {"health", fault::FaultClass::kHealthTrip};
  }
  if (dynamic_cast<const NumericalError*>(&e)) {
    return {"numerical", fault::FaultClass::kNumericalFault};
  }
  return {"device", fault::FaultClass::kDeviceFault};
}

/// Copy walker w's end-of-run state into `results` after the crowd's
/// backend has synchronized: stratification stats, profiler (added to the
/// phase profile a resumed chain brought with its handoff), backend
/// accounting (the shared backend's stats land on walker 0, so merged
/// sums stay correct), wrap residency and the trajectory hash.
void collect_walker(WalkerBatch& batch, idx w, SimulationResults& results) {
  DqmcEngine& engine = batch.engine(w);
  results.strat_stats = engine.strat_stats();
  results.profiler.merge(engine.profiler());
  results.backend_name = batch.compute_backend().name();
  if (w == 0) results.backend_stats = batch.compute_backend().stats();
  results.wrap_uploads_skipped = engine.wrap_uploads_skipped();
  results.trajectory_hash = core::trajectory_hash(engine);
  results.fault_report.final_backend = results.backend_name;
}

/// An input error in the checkpoint_in file at `path`, naming it.
InputError checkpoint_in_error(const std::string& path, const InputError& e) {
  return InputError("checkpoint_in " + path + ": " + e.what());
}

}  // namespace

CrowdSupervisor::CrowdSupervisor(
    const SimulationConfig& config, const SupervisorPolicy& policy, idx first,
    idx walkers, const ProgressFn& progress, ChainPartials& partials,
    idx partials_offset)
    : config_(config),
      policy_(policy),
      progress_(progress),
      first_(first),
      walkers_(walkers),
      offset_(partials_offset),
      partials_(partials),
      lattice_(config.make_lattice()),
      backend_(config.engine.backend),
      measurements_(config, walkers) {
  DQMC_CHECK_MSG(walkers >= 1, "a crowd needs at least one walker");
  DQMC_CHECK_MSG(partials_offset >= 0 &&
                     static_cast<std::size_t>(partials_offset + walkers) <=
                         partials.size(),
                 "partials vector does not cover the crowd");
  for (idx w = 0; w < walkers_; ++w) {
    SimulationConfig chain_cfg = config_;
    chain_cfg.seed = seed(w);
    partials_[index(w)] = std::make_unique<SimulationResults>(chain_cfg);
  }
  scratch_stats_.resize(static_cast<std::size_t>(walkers_));
  // The health gate trips on violations this crowd adds, not on those the
  // monitor already holds (a resumed fleet chain reloads its own).
  health_baseline_ = obs::health().violations();
}

void CrowdSupervisor::set_resume(std::vector<std::string> checkpoints,
                                 idx done) {
  DQMC_CHECK_MSG(!batch_, "set_resume must precede run()");
  DQMC_CHECK_MSG(static_cast<idx>(checkpoints.size()) == walkers_,
                 "resume needs one checkpoint per walker");
  DQMC_CHECK_MSG(done >= 0 && done <= total_sweeps(),
                 "resume sweep count out of range");
  ckpts_ = std::move(checkpoints);
  ckpt_sweep_ = done;
  done_ = done;
  resume_ = true;
}

void CrowdSupervisor::run() {
  const idx total = total_sweeps();
  const idx interval =
      policy_.checkpoint_interval > 0 ? policy_.checkpoint_interval : total;
  int attempt = 0;
  bool need_restore = false;

  if (!resume_ && !config_.checkpoint_in.empty()) read_checkpoint_in();

  while (done_ < total || !batch_) {
    try {
      if (!batch_) {
        start_batch();
      } else if (need_restore) {
        restore();
        need_restore = false;
      }
      if (done_ >= total) break;
      const idx seg_end = std::min(done_ + interval, total);
      run_segment(done_, seg_end);
      check_health();
      take_checkpoints(seg_end);
      commit(seg_end);
      attempt = 0;
      if (boundary_) {
        boundary_(CrowdBoundary{done_, total});
      }
    } catch (const InputError&) {
      throw;  // bad input, not a fault: no retry can fix it
    } catch (const std::exception& e) {
      const Classified c = classify(e);
      const std::int32_t walker =
          c.walker >= 0 ? static_cast<std::int32_t>(first_ + c.walker) : -1;
      if (walker >= 0) {
        // Attribute the fault to the walker before the crowd-wide recovery
        // decision is taken (the dump's event tail shows both).
        DQMC_EVENT(obs::EventKind::kNote, "walker.fault", c.site.c_str(), 0.0,
                   0.0, walker, crowd_id());
      }
      if (!recover(c.site, c.cls, e.what(), ++attempt, walker)) throw;
      // A fault while restoring (or starting) loops back into the same
      // recovery ladder: need_restore stays set until a restore commits.
      need_restore = true;
    }
  }

  finish();
}

std::unique_ptr<WalkerBatch> CrowdSupervisor::make_batch() const {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(walkers_));
  for (idx w = 0; w < walkers_; ++w) seeds.push_back(seed(w));
  EngineConfig engine = config_.engine;
  engine.backend = backend_;
  return std::make_unique<WalkerBatch>(lattice_, config_.model, engine, seeds);
}

void CrowdSupervisor::start_batch() {
  batch_ = make_batch();
  if (resume_) {
    // The handoff checkpoints ARE the current recovery boundary: load them
    // and continue; take_checkpoints(0) would regress the boundary.
    load_all_from_ckpts();
    return;
  }
  initialize_batch();
  take_checkpoints(0);
}

void CrowdSupervisor::read_checkpoint_in() {
  const std::string& path = config_.checkpoint_in;
  std::ifstream file(path);
  DQMC_CHECK_INPUT(file.good(), "cannot read checkpoint_in " + path);
  std::ostringstream text;
  text << file.rdbuf();
  checkpoint_in_ = text.str();
  std::istringstream in(checkpoint_in_);
  try {
    check_checkpoint(in, config_.model.slices, lattice_.num_sites());
  } catch (const InputError& e) {
    throw checkpoint_in_error(path, e);
  }
}

void CrowdSupervisor::initialize_batch() {
  if (checkpoint_in_.empty()) {
    batch_->initialize_all();
    return;
  }
  try {
    for (idx w = 0; w < walkers_; ++w) {
      std::istringstream in(checkpoint_in_);
      load_checkpoint(in, batch_->engine(w));
    }
  } catch (const InputError& e) {
    // Only a load can tell a field from a recorded sign it does not match.
    throw checkpoint_in_error(config_.checkpoint_in, e);
  }
}

void CrowdSupervisor::load_all_from_ckpts() {
  for (idx w = 0; w < walkers_; ++w) {
    std::istringstream in(ckpts_[static_cast<std::size_t>(w)]);
    load_checkpoint(in, batch_->engine(w));
  }
}

void CrowdSupervisor::restore() {
  discard_scratch();
  batch_.reset();  // old shared backend drains before the new one
  batch_ = make_batch();
  if (ckpts_.empty()) {
    initialize_batch();  // the initial checkpoint was skipped
  } else {
    load_all_from_ckpts();
  }
  ++report().restarts;
  obs::metrics().count("fault.recovery.restarts");
  for (idx g = ckpt_sweep_; g < done_; ++g) batch_->sweep_all();
}

bool CrowdSupervisor::recover(const std::string& site, fault::FaultClass cls,
                              const std::string& what, int attempt,
                              std::int32_t walker) {
  fault::FaultReport& rep = report();
  ++rep.faults;
  if (cls == fault::FaultClass::kHealthTrip) ++rep.health_trips;
  obs::metrics().count("fault.observed");

  // Every decision leaves a forensic artifact: the event lands in the
  // report and the event log, and the crash dump (when a path is
  // configured) is rewritten with the freshest tail. Both name this crowd
  // and the faulting walker: crowds run side by side.
  const auto decide = [&](const char* action, double backoff) {
    rep.events.push_back(fault::FaultEvent{site, fault::fault_class_name(cls),
                                           action, done_, attempt, backoff,
                                           what});
    DQMC_EVENT(obs::EventKind::kRecovery, site.c_str(), action,
               static_cast<double>(done_), static_cast<double>(attempt),
               walker, crowd_id());
    obs::event_log().write_crash_dump(
        "fault:" + site,
        {walker, crowd_id(), static_cast<std::int64_t>(done_)});
  };
  if (attempt <= policy_.max_retries) {
    ++rep.retries;
    obs::metrics().count("fault.recovery.retries");
    const double ms = backoff_ms(policy_, attempt);
    if (policy_.sleep_on_backoff && ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    decide("retry", ms);
    return true;
  }
  if (cls == fault::FaultClass::kHealthTrip) {
    // Deterministic re-trips mean the anomaly is real but the chains can
    // still run: degrade the monitoring, not the physics.
    check_health_ = false;
    decide("disable-health", 0.0);
    return true;
  }
  if (cls == fault::FaultClass::kDeviceFault && policy_.allow_degrade &&
      backend_ == backend::BackendKind::kGpuSim) {
    backend_ = backend::BackendKind::kHost;
    ++rep.degradations;
    rep.degraded = true;
    obs::metrics().count("fault.recovery.degradations");
    decide("degrade", 0.0);
    return true;
  }
  decide("abort", 0.0);
  return false;
}

void CrowdSupervisor::run_segment(idx g_begin, idx g_end) {
  const idx total = total_sweeps();
  for (idx g = g_begin; g < g_end; ++g) {
    if (g < config_.warmup_sweeps) {
      add_stats(batch_->sweep_all());
    } else {
      add_stats(measurements_.sweep(*batch_, g - config_.warmup_sweeps));
    }
    if (progress_) {
      // One chain-sweep unit per walker: the crowd advanced W walkers by
      // one lockstep sweep.
      for (idx w = 0; w < walkers_; ++w) {
        progress_(g + 1, total, g < config_.warmup_sweeps);
      }
    }
  }
}

void CrowdSupervisor::add_stats(const std::vector<SweepStats>& stats) {
  for (idx w = 0; w < walkers_; ++w) {
    scratch_stats_[static_cast<std::size_t>(w)].proposed +=
        stats[static_cast<std::size_t>(w)].proposed;
    scratch_stats_[static_cast<std::size_t>(w)].accepted +=
        stats[static_cast<std::size_t>(w)].accepted;
  }
}

/// Post-segment health gate (fail point "supervisor.health" simulates a
/// trip). A violation-count increase since the last gate throws; the
/// baseline advances first so the REPLAY's own samples decide whether the
/// anomaly persists.
void CrowdSupervisor::check_health() {
  // The fail point sits behind the same gate the recovery ladder disables:
  // "disable-health" must silence injected trips the way it silences real
  // ones, or a persistent arming could never converge.
  if (check_health_) DQMC_FAILPOINT("supervisor.health");
  if (!policy_.trip_on_health || !check_health_ || !obs::health().enabled())
    return;
  const std::uint64_t v = obs::health().violations();
  if (v > health_baseline_) {
    health_baseline_ = v;
    throw HealthTripError(v);
  }
  health_baseline_ = v;
}

bool CrowdSupervisor::save_retrying(idx sweep,
                                    const std::function<void()>& save,
                                    const char* give_up) {
  for (int io_attempt = 1;; ++io_attempt) {
    try {
      save();
      return true;
    } catch (const std::exception& e) {
      fault::FaultReport& rep = report();
      ++rep.faults;
      ++rep.checkpoint_faults;
      obs::metrics().count("fault.checkpoint_faults");
      const bool retry = io_attempt == 1;
      rep.events.push_back(fault::FaultEvent{
          "checkpoint.save",
          fault::fault_class_name(fault::FaultClass::kIoError),
          retry ? "retry-checkpoint" : give_up, sweep, io_attempt,
          0.0, e.what()});
      if (!retry) return false;
    }
  }
}

/// Serialize the recovery checkpoints for sweep boundary `sweep`. A walker
/// whose checkpoint cannot be saved skips the WHOLE crowd's: the segment
/// commits anyway and the previous lockstep set stays the recovery point.
void CrowdSupervisor::take_checkpoints(idx sweep) {
  std::vector<std::string> fresh(static_cast<std::size_t>(walkers_));
  for (idx w = 0; w < walkers_; ++w) {
    const bool saved = save_retrying(sweep, [&] {
      std::ostringstream out;
      save_checkpoint(out, batch_->engine(w));
      fresh[static_cast<std::size_t>(w)] = out.str();
    }, "skip-checkpoint");
    if (!saved) return;
  }
  ckpts_ = std::move(fresh);
  ckpt_sweep_ = sweep;
  report().checkpoints += static_cast<std::uint64_t>(walkers_);
  DQMC_EVENT(obs::EventKind::kCheckpoint, "checkpoint.save", "crowd",
             static_cast<double>(sweep), static_cast<double>(walkers_), -1,
             crowd_id());
}

void CrowdSupervisor::commit(idx seg_end) {
  for (idx w = 0; w < walkers_; ++w) {
    SimulationResults& r = *partials_[index(w)];
    measurements_.commit(w, r);
    r.sweep_stats.proposed +=
        scratch_stats_[static_cast<std::size_t>(w)].proposed;
    r.sweep_stats.accepted +=
        scratch_stats_[static_cast<std::size_t>(w)].accepted;
  }
  discard_scratch();
  done_ = seg_end;
}

void CrowdSupervisor::discard_scratch() {
  measurements_.discard();
  for (auto& s : scratch_stats_) s = SweepStats{};
}

void CrowdSupervisor::finish() {
  // The requested output is not a recovery point: after the retry, the run
  // fails rather than finishing without the file.
  if (!config_.checkpoint_out.empty()) {
    for (idx w = 0; w < walkers_; ++w) {
      const bool saved = save_retrying(
          done_,
          [&] {
            save_checkpoint_file(config_.checkpoint_out, batch_->engine(w));
          },
          "abort");
      if (!saved) {
        throw fault::IoError("cannot write checkpoint_out " +
                             config_.checkpoint_out);
      }
    }
  }
  batch_->compute_backend().synchronize();
  for (idx w = 0; w < walkers_; ++w) {
    collect_walker(*batch_, w, *partials_[index(w)]);
  }
}

SimulationResults run_supervised_simulation(const SimulationConfig& config,
                                            const SupervisorPolicy& policy,
                                            const ProgressFn& progress) {
  config.validate(1);
  policy.validate();
  Stopwatch watch;
  ChainPartials partials(1);
  CrowdSupervisor(config, policy, 0, 1, progress, partials, 0).run();
  partials[0]->elapsed_seconds = watch.seconds();
  return std::move(*partials[0]);
}

SimulationResults run_supervised_parallel(const SimulationConfig& config,
                                          const SupervisorPolicy& policy,
                                          idx chains,
                                          const ProgressFn& progress) {
  config.validate(chains);
  policy.validate();
  Stopwatch watch;

  // Consecutive crowds of up to walker_batch chains, run side by side (each
  // on its own backend), so a run of W = 1 crowds keeps every chain
  // concurrent; the first runs on the calling thread (a lone crowd never
  // leaves it). Rethrows crowd failures.
  ChainPartials partials(static_cast<std::size_t>(chains));
  const idx W = config.walker_batch;
  par::parallel_for(
      0, (chains + W - 1) / W,
      [&](par::index_t k) {
        const idx first = static_cast<idx>(k) * W;
        CrowdSupervisor(config, policy, first, std::min(W, chains - first),
                        progress, partials, first)
            .run();
      },
      {.grain = 1});

  SimulationResults merged = merge_chains(config, partials);
  merged.elapsed_seconds = watch.seconds();
  return merged;
}

SimulationResults run_simulation(const SimulationConfig& config,
                                 const ProgressFn& progress) {
  return run_supervised_simulation(config, SupervisorPolicy{}, progress);
}

SimulationResults run_parallel_simulation(const SimulationConfig& config,
                                          idx chains,
                                          const ProgressFn& progress) {
  return run_supervised_parallel(config, SupervisorPolicy{}, chains, progress);
}

}  // namespace dqmc::core
