#include "fleet/coordinator.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "common/hexio.h"
#include "common/stopwatch.h"
#include "fault/failpoint.h"
#include "fleet/serial.h"
#include "fleet/wire.h"
#include "fleet/worker.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace dqmc::fleet {

namespace hx = dqmc::hexio;

obs::Json FleetReport::json_value() const {
  obs::Json evs = obs::Json::array();
  for (const fault::FaultEvent& e : events) {
    evs.push_back(obs::Json::object()
                      .set("site", e.site)
                      .set("class", e.fault_class)
                      .set("action", e.action)
                      .set("detail", e.detail));
  }
  obs::Json ws = obs::Json::array();
  for (const WorkerSummary& w : worker_summaries) {
    obs::Json jw = obs::Json::object()
                       .set("index", static_cast<std::int64_t>(w.index))
                       .set("pid", static_cast<std::int64_t>(w.pid))
                       .set("shards_completed", w.shards_completed)
                       .set("frames_received", w.frames_received)
                       .set("fate", w.fate);
    if (!w.crash_dump_path.empty()) jw.set("crash_dump", w.crash_dump_path);
    ws.push_back(std::move(jw));
  }
  return obs::Json::object()
      .set("workers", static_cast<std::int64_t>(workers))
      .set("chains", static_cast<std::int64_t>(chains))
      .set("frames_received", frames_received)
      .set("bytes_received", bytes_received)
      .set("snapshots", snapshots)
      .set("worker_deaths", worker_deaths)
      .set("reassignments", reassignments)
      .set("protocol_faults", protocol_faults)
      .set("events", std::move(evs))
      .set("worker_table", std::move(ws));
}

namespace {

using Clock = std::chrono::steady_clock;

struct ShardRecord {
  ShardState state;  ///< latest resume point (fresh: no checkpoints); the
                     ///< result once completed
  int owner = -1;    ///< worker index, -1 when unassigned
  int reassigns = 0;
  bool completed = false;
  core::idx progress_done = 0;  ///< sweeps already surfaced to progress
};

struct WorkerRecord {
  long pid = 0;
  int to_fd = -1;    ///< coordinator -> worker
  int from_fd = -1;  ///< worker -> coordinator
  FrameDecoder decoder;
  int shard = -1;  ///< index into shards_, -1 when idle
  bool alive = true;
  bool helloed = false;
  Clock::time_point last_heard;
  WorkerSummary summary;
};

/// Restores the previous SIGPIPE disposition on scope exit (a worker dying
/// mid-write must surface as EPIPE, not kill the coordinator).
class SigpipeGuard {
 public:
  SigpipeGuard() { old_ = std::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { std::signal(SIGPIPE, old_); }

 private:
  void (*old_)(int);
};

class Coordinator {
 public:
  Coordinator(const SimulationConfig& config, const SupervisorPolicy& policy,
              const FleetConfig& fleet, core::idx chains,
              const ProgressFn& progress)
      : config_(config),
        policy_(policy),
        fleet_(fleet),
        chains_(chains),
        progress_(progress),
        total_sweeps_(config.warmup_sweeps + config.measurement_sweeps) {}

  ~Coordinator() {
    // Never leak children: SIGKILL + reap anything still alive (normal
    // completion has already reaped everyone by shutdown()).
    for (WorkerRecord& w : workers_) {
      if (!w.alive) continue;
      ::kill(static_cast<pid_t>(w.pid), SIGKILL);
      int status = 0;
      ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
      close_fds(w);
    }
  }

  FleetResult run() {
    Stopwatch watch;
    make_shards();
    fork_workers();
    report_.workers = fleet_.workers;
    report_.chains = chains_;

    while (!all_completed()) {
      dispatch();
      poll_once();
      check_wedges();
    }
    shutdown();

    FleetResult out(core::merge_chains(config_, chain_partials_));
    for (const auto& partial : chain_partials_) {
      out.chain_hashes.push_back(partial->trajectory_hash);
    }
    // Each chain ran as a crowd of one, whatever walker_batch says.
    out.results.batch_walkers = 1;
    out.results.batch_crowds = chains_;
    for (const ShardRecord& shard : shards_) {
      merge_observability(shard.state.observability);
    }
    out.results.elapsed_seconds = watch.seconds();
    out.fleet = report_;

    obs::metrics().count("fleet.runs");
    obs::metrics().count("fleet.chains", static_cast<std::uint64_t>(
                                             report_.chains));
    obs::metrics().count("fleet.snapshots", report_.snapshots);
    obs::metrics().count("fleet.worker_deaths", report_.worker_deaths);
    obs::metrics().count("fleet.reassignments", report_.reassignments);
    obs::metrics().count("fleet.protocol_faults", report_.protocol_faults);
    return out;
  }

 private:
  /// One shard per chain, in chain order: shard s is chain s.
  void make_shards() {
    chain_partials_.resize(static_cast<std::size_t>(chains_));
    shards_.resize(static_cast<std::size_t>(chains_));
    for (core::idx chain = 0; chain < chains_; ++chain) {
      shards_[static_cast<std::size_t>(chain)].state.chain = chain;
    }
  }

  void fork_workers() {
    workers_.resize(static_cast<std::size_t>(fleet_.workers));
    for (idx i = 0; i < fleet_.workers; ++i) {
      int to_child[2], to_parent[2];
      DQMC_CHECK_MSG(::pipe(to_child) == 0 && ::pipe(to_parent) == 0,
                     "fleet: pipe() failed");
      const pid_t pid = ::fork();
      DQMC_CHECK_MSG(pid >= 0, "fleet: fork() failed");
      if (pid == 0) {
        // Child: drop every parent-side fd inherited from earlier forks so
        // a dead sibling's pipe actually reaches EOF at the coordinator.
        for (idx j = 0; j < i; ++j) {
          close_fds(workers_[static_cast<std::size_t>(j)]);
        }
        ::close(to_child[1]);
        ::close(to_parent[0]);
        worker_main(config_, policy_, fleet_, static_cast<int>(i),
                    to_child[0], to_parent[1]);  // never returns
      }
      ::close(to_child[0]);
      ::close(to_parent[1]);
      WorkerRecord& w = workers_[static_cast<std::size_t>(i)];
      w.pid = static_cast<long>(pid);
      w.to_fd = to_child[1];
      w.from_fd = to_parent[0];
      w.last_heard = Clock::now();
      w.summary.index = static_cast<int>(i);
      w.summary.pid = w.pid;
    }
  }

  static void close_fds(WorkerRecord& w) {
    if (w.to_fd >= 0) ::close(w.to_fd);
    if (w.from_fd >= 0) ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
  }

  bool all_completed() const {
    for (const ShardRecord& s : shards_) {
      if (!s.completed) return false;
    }
    return true;
  }

  int pending_shard() const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s].completed && shards_[s].owner < 0)
        return static_cast<int>(s);
    }
    return -1;
  }

  void dispatch() {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerRecord& w = workers_[i];
      if (!w.alive || !w.helloed || w.shard >= 0) continue;
      const int s = pending_shard();
      if (s < 0) return;
      try {
        write_frame(w.to_fd, FrameType::kAssign,
                    static_cast<std::uint32_t>(s),
                    encode_shard_state(shards_[static_cast<std::size_t>(s)]
                                           .state));
      } catch (const FleetProtocolError& e) {
        // The pipe is gone: the worker died between polls. Its EOF is (or
        // will be) readable; dispose of it now and keep the shard pending.
        dispose_worker(static_cast<int>(i), "fleet.worker.send",
                       std::string("assign failed: ") + e.what());
        continue;
      }
      shards_[static_cast<std::size_t>(s)].owner = static_cast<int>(i);
      w.shard = s;
    }
  }

  void poll_once() {
    std::vector<struct pollfd> fds;
    std::vector<int> owner;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      struct pollfd pfd {};
      pfd.fd = workers_[i].from_fd;
      pfd.events = POLLIN;
      fds.push_back(pfd);
      owner.push_back(static_cast<int>(i));
    }
    DQMC_CHECK_MSG(!fds.empty(), "fleet: all workers died");
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0) {
      DQMC_CHECK_MSG(errno == EINTR, "fleet: poll() failed");
      return;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      service_worker(owner[k]);
    }
  }

  void service_worker(int wi) {
    WorkerRecord& w = workers_[static_cast<std::size_t>(wi)];
    if (!w.alive) return;
    bool eof = false;
    try {
      eof = !read_into(w.from_fd, w.decoder);
      if (!eof) {
        w.last_heard = Clock::now();
        for (;;) {
          std::optional<Frame> frame = w.decoder.next();
          if (!frame) break;
          ++w.summary.frames_received;
          ++report_.frames_received;
          report_.bytes_received += kWireHeaderSize + frame->payload.size();
          handle_frame(wi, *frame);
        }
      }
    } catch (const fault::InjectedFault& e) {
      // An armed coordinator-side protocol fail point classifies like real
      // malformed traffic: io fault, dispose of the peer, recover.
      protocol_fault(wi, e.site(), e.what());
      return;
    } catch (const FleetProtocolError& e) {
      protocol_fault(wi, FleetProtocolError::site(), e.what());
      return;
    }
    if (eof) worker_eof(wi);
  }

  void handle_frame(int wi, const Frame& frame) {
    WorkerRecord& w = workers_[static_cast<std::size_t>(wi)];
    switch (frame.type) {
      case FrameType::kHello: {
        std::istringstream in(frame.payload);
        (void)hx::get_u64(in);  // worker index, already known positionally
        w.summary.pid = static_cast<long>(hx::get_u64(in));
        w.helloed = true;
        // The worker derived its dump path from the same base at the fork.
        const std::string base = obs::event_log().dump_path();
        if (!base.empty()) {
          w.summary.crash_dump_path = worker_unique_path(base, wi,
                                                         w.summary.pid);
        }
        return;
      }
      case FrameType::kProgress: {
        ShardRecord& shard = shard_for(frame.shard);
        std::istringstream in(frame.payload);
        const core::idx done = static_cast<core::idx>(hx::get_u64(in));
        // Replayed sweeps (done <= already-reported) stay silent: committed
        // work is surfaced exactly once, like the accumulators themselves.
        for (core::idx g = shard.progress_done + 1; g <= done; ++g) {
          if (!progress_) break;
          progress_(g, total_sweeps_, g <= config_.warmup_sweeps);
        }
        shard.progress_done = std::max(shard.progress_done, done);
        return;
      }
      case FrameType::kSnapshot: {
        ShardRecord& shard = shard_for(frame.shard);
        shard.state = decode_shard_state(frame.payload);
        ++report_.snapshots;
        return;
      }
      case FrameType::kResult: {
        ShardRecord& shard = shard_for(frame.shard);
        DQMC_CHECK_MSG(!shard.completed, "fleet: chain completed twice");
        ShardState result = decode_shard_state(frame.payload);
        auto& slot = chain_partials_[frame.shard];
        slot = make_chain_partial(config_, shard.state.chain);
        deserialize_chain_partial(result.partial, *slot);
        shard.state = std::move(result);
        shard.completed = true;
        shard.owner = -1;
        shard.progress_done = total_sweeps_;
        w.shard = -1;
        ++w.summary.shards_completed;
        return;
      }
      case FrameType::kFail:
        throw Error("fleet: worker " + std::to_string(wi) +
                    " reported a terminal shard failure: " + frame.payload);
      default:
        throw FleetProtocolError(std::string("unexpected ") +
                                 frame_type_name(frame.type) +
                                 " frame from a worker");
    }
  }

  ShardRecord& shard_for(std::uint32_t id) {
    DQMC_CHECK_MSG(id < shards_.size(), "fleet: frame names an unknown shard");
    return shards_[id];
  }

  /// Reap `wi`, classify its end, and reassign its shard. `site`/`detail`
  /// describe why the coordinator is disposing of it (empty site = the
  /// worker closed its pipe on its own).
  void dispose_worker(int wi, const std::string& site,
                      const std::string& detail) {
    WorkerRecord& w = workers_[static_cast<std::size_t>(wi)];
    if (!w.alive) return;
    int status = 0;
    ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
    std::string fate;
    if (WIFSIGNALED(status)) {
      fate = "killed (signal " + std::to_string(WTERMSIG(status)) + ")";
    } else if (WIFEXITED(status)) {
      fate = "exit (code " + std::to_string(WEXITSTATUS(status)) + ")";
    } else {
      fate = "unknown";
    }
    if (!site.empty()) fate += " [" + site + "]";
    w.summary.fate = fate;
    close_fds(w);
    w.alive = false;

    if (shutdown_phase_) return;
    ++report_.worker_deaths;
    if (w.decoder.mid_frame()) {
      // Died mid-frame: the stream was truncated — record the io fault
      // alongside the death itself.
      ++report_.protocol_faults;
      report_.events.push_back(fault::FaultEvent{
          "fleet.io.truncated",
          fault::fault_class_name(fault::FaultClass::kIoError), "drop", 0, 1,
          0.0, "pipe closed mid-frame"});
    }
    const std::string event_site = site.empty() ? "fleet.worker" : site;
    report_.events.push_back(fault::FaultEvent{
        event_site, fault::fault_class_name(fault::fault_class_for_site(
                        event_site)),
        w.shard >= 0 ? "reassign" : "drop", 0, 1, 0.0,
        "worker " + std::to_string(wi) + ": " + fate +
            (detail.empty() ? "" : (": " + detail))});

    if (w.shard >= 0) {
      ShardRecord& shard = shards_[static_cast<std::size_t>(w.shard)];
      shard.owner = -1;
      w.shard = -1;
      ++report_.reassignments;
      DQMC_CHECK_MSG(++shard.reassigns <= fleet_.max_reassigns,
                     "fleet: shard exceeded max_reassigns");
      // The shard replays from its latest snapshot (or from scratch when
      // none arrived) on the next dispatch — bitwise-identical either way.
    }
  }

  void worker_eof(int wi) { dispose_worker(wi, "", ""); }

  void protocol_fault(int wi, const std::string& site,
                      const std::string& detail) {
    WorkerRecord& w = workers_[static_cast<std::size_t>(wi)];
    ++report_.protocol_faults;
    report_.events.push_back(fault::FaultEvent{
        site, fault::fault_class_name(fault::FaultClass::kIoError), "dispose",
        0, 1, 0.0, detail});
    // A peer speaking garbage is not recoverable in place: kill it and let
    // the standard death path reassign its shard.
    ::kill(static_cast<pid_t>(w.pid), SIGKILL);
    dispose_worker(wi, site, detail);
  }

  void check_wedges() {
    if (fleet_.wedge_timeout_ms <= 0) return;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerRecord& w = workers_[i];
      if (!w.alive || w.shard < 0) continue;
      const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
                              now - w.last_heard)
                              .count();
      if (silent < static_cast<long long>(fleet_.wedge_timeout_ms)) continue;
      ::kill(static_cast<pid_t>(w.pid), SIGKILL);
      dispose_worker(static_cast<int>(i), "fleet.worker.wedged",
                     "no frame for " + std::to_string(silent) + " ms");
    }
  }

  void shutdown() {
    shutdown_phase_ = true;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerRecord& w = workers_[i];
      if (!w.alive) continue;
      try {
        write_frame(w.to_fd, FrameType::kShutdown, 0, "");
      } catch (const FleetProtocolError&) {
      }
      int status = 0;
      ::waitpid(static_cast<pid_t>(w.pid), &status, 0);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        w.summary.fate = "completed";
      } else if (WIFSIGNALED(status)) {
        w.summary.fate =
            "killed (signal " + std::to_string(WTERMSIG(status)) + ")";
      } else {
        w.summary.fate =
            "exit (code " + std::to_string(WEXITSTATUS(status)) + ")";
      }
      close_fds(w);
      w.alive = false;
    }
    for (WorkerRecord& w : workers_) {
      report_.worker_summaries.push_back(w.summary);
    }
  }

  const SimulationConfig& config_;
  const SupervisorPolicy& policy_;
  const FleetConfig& fleet_;
  core::idx chains_;
  const ProgressFn& progress_;
  core::idx total_sweeps_;
  std::vector<ShardRecord> shards_;
  std::vector<WorkerRecord> workers_;
  core::ChainPartials chain_partials_;
  FleetReport report_;
  bool shutdown_phase_ = false;
};

}  // namespace

FleetResult run_fleet(const SimulationConfig& config,
                      const SupervisorPolicy& policy, const FleetConfig& fleet,
                      idx chains, const ProgressFn& progress) {
  config.validate(chains);
  policy.validate();
  fleet.validate();
  SigpipeGuard sigpipe;
  Coordinator coordinator(config, policy, fleet, chains, progress);
  return coordinator.run();
}

}  // namespace dqmc::fleet
