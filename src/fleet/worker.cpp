#include "fleet/worker.h"

#include <csignal>
#include <sstream>
#include <unistd.h>

#include <memory>

#include "common/hexio.h"
#include "dqmc/crowd_supervisor.h"
#include "fault/failpoint.h"
#include "fleet/serial.h"
#include "fleet/wire.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "parallel/topology.h"

namespace dqmc::fleet {

namespace hx = dqmc::hexio;

using core::CrowdSupervisor;
using core::ProgressFn;

std::string worker_unique_path(const std::string& base, int worker_index,
                               long pid) {
  const std::string tag =
      ".w" + std::to_string(worker_index) + ".p" + std::to_string(pid);
  for (const char* ext : {".jsonl", ".json"}) {
    const std::size_t n = std::string(ext).size();
    if (base.size() > n && base.compare(base.size() - n, n, ext) == 0) {
      return base.substr(0, base.size() - n) + tag + ext;
    }
  }
  return base + tag;
}

namespace {

class Worker {
 public:
  Worker(const SimulationConfig& config, const SupervisorPolicy& policy,
         int index, int read_fd, int write_fd)
      : config_(config),
        policy_(policy),
        index_(index),
        read_fd_(read_fd),
        write_fd_(write_fd) {
    progress_ = [](core::idx, core::idx, bool) {
      // Deterministic kill/wedge probes for the determinism suite: the
      // progress stream ticks once per sweep of this worker's chains, so an
      // armed "fleet.worker.kill:N" dies at the same point of the
      // trajectory every run — mid-segment, scratch uncommitted.
      if (DQMC_FAILPOINT_FIRE("fleet.worker.kill")) ::raise(SIGKILL);
      if (DQMC_FAILPOINT_FIRE("fleet.worker.wedge")) {
        for (;;) ::pause();
      }
    };
  }

  int run() {
    {
      std::ostringstream hello;
      hx::put_u64(hello, static_cast<std::uint64_t>(index_));
      hx::put_u64(hello, static_cast<std::uint64_t>(::getpid()));
      write_frame(write_fd_, FrameType::kHello, 0, hello.str());
    }
    for (;;) {
      for (;;) {
        std::optional<Frame> frame = decoder_.next();
        if (!frame) break;
        const int rc = handle(*frame);
        if (rc >= 0) return rc;
      }
      if (!read_into(read_fd_, decoder_)) return 1;  // coordinator died
    }
  }

 private:
  /// Returns -1 to continue, >= 0 to exit with that code.
  int handle(const Frame& frame) {
    switch (frame.type) {
      case FrameType::kAssign:
        run_shard(frame.shard, decode_shard_state(frame.payload));
        return -1;
      case FrameType::kShutdown:
        return 0;
      default:
        return -1;  // coordinator-bound frame types are never valid here
    }
  }

  /// Run one chain to completion through a crowd of one, from scratch or
  /// from the snapshot the assignment carries. The registry and monitor
  /// hold this chain's observations alone: the values and samples left
  /// from earlier chains (or the fork) are zeroed, then the assignment's
  /// block restores what the chain observed before its snapshot.
  void run_shard(std::uint32_t shard_id, const ShardState& assignment) {
    shard_id_ = shard_id;
    chain_ = assignment.chain;
    obs::metrics().reset();
    obs::health().reset();
    merge_observability(assignment.observability);
    sup_ = std::make_unique<CrowdSupervisor>(config_, policy_, chain_, 1,
                                             progress_, partials_, 0);
    if (!assignment.checkpoint.empty()) {
      sup_->set_resume({assignment.checkpoint}, assignment.done);
      // Re-prime the samples committed before the snapshot.
      deserialize_chain_partial(assignment.partial, *partials_[0]);
    }
    sup_->set_boundary_hook(
        [this](const core::CrowdBoundary& b) { on_boundary(b); });

    try {
      sup_->run();
    } catch (const std::exception& e) {
      write_frame(write_fd_, FrameType::kFail, shard_id_, e.what());
      sup_.reset();
      return;
    }
    write_frame(write_fd_, FrameType::kResult, shard_id_,
                encode_shard_state({chain_, sup_->done(), "",
                                    serialize_chain_partial(*partials_[0]),
                                    save_observability()}));
    sup_.reset();
  }

  /// Report progress and, when the recovery checkpoint is current, ship it
  /// as the chain's resume snapshot, with the committed partial, the
  /// observability block and the phase profile up to this boundary: the
  /// partial's own (what a handoff brought) plus the engine's, which the
  /// partial only takes at the end of the run. Nothing else reaches a busy
  /// worker: a write that fails means the coordinator is gone, so the
  /// worker exits here instead of replaying the segment through the
  /// recovery ladder.
  void on_boundary(const core::CrowdBoundary& b) {
    try {
      std::ostringstream p;
      hx::put_u64(p, static_cast<std::uint64_t>(b.done));
      write_frame(write_fd_, FrameType::kProgress, shard_id_, p.str());
      if (b.done < b.total && sup_->checkpoint_sweep() == b.done) {
        core::SimulationResults partial = *partials_[0];
        partial.profiler.merge(sup_->engine_profile(0));
        const ShardState snapshot{chain_, b.done, sup_->checkpoints().front(),
                                  serialize_chain_partial(partial),
                                  save_observability()};
        write_frame(write_fd_, FrameType::kSnapshot, shard_id_,
                    encode_shard_state(snapshot));
      }
    } catch (const FleetProtocolError&) {
      ::_exit(1);
    }
  }

  const SimulationConfig& config_;
  const SupervisorPolicy& policy_;
  int index_;
  int read_fd_;
  int write_fd_;
  ProgressFn progress_;
  FrameDecoder decoder_;
  std::uint32_t shard_id_ = 0;
  core::idx chain_ = 0;
  core::ChainPartials partials_ = core::ChainPartials(1);
  std::unique_ptr<CrowdSupervisor> sup_;
};

}  // namespace

void worker_main(const SimulationConfig& config,
                 const SupervisorPolicy& policy, const FleetConfig& fleet,
                 int worker_index, int read_fd, int write_fd) {
  // Only the forking thread survives into the child: run every task-runtime
  // spawn inline on this thread instead of waking a pool that no longer
  // exists (the inherited TaskRuntime object is never touched).
  par::set_thread_serial(true);
  std::signal(SIGPIPE, SIG_IGN);

  // The registry state crossed the fork; this worker's arming is exactly
  // fleet.worker_failpoints (on the targeted worker), nothing inherited.
  fault::failpoints().disarm_all();
  if (!fleet.worker_failpoints.empty() &&
      (fleet.failpoint_worker < 0 || fleet.failpoint_worker == worker_index)) {
    fault::failpoints().arm_spec(fleet.worker_failpoints);
  }

  // The event log's artifact paths crossed the fork too: a worker never
  // writes the coordinator's dump, trace or manifest. When the coordinator
  // has a dump path, the worker dumps to its own worker-unique copy of it
  // (the coordinator names the same path in its worker table).
  std::string dump_path = obs::event_log().dump_path();
  if (!dump_path.empty()) {
    dump_path = worker_unique_path(dump_path, worker_index,
                                   static_cast<long>(::getpid()));
    obs::event_log().set_armed(true);
  }
  obs::event_log().set_dump_path(dump_path);
  obs::event_log().set_export_paths("", "");

  int code = 2;
  try {
    Worker worker(config, policy, worker_index, read_fd, write_fd);
    code = worker.run();
  } catch (const std::exception& e) {
    obs::event_log().write_crash_dump(std::string("fleet.worker: ") +
                                      e.what());
    try {
      write_frame(write_fd, FrameType::kFail, 0, e.what());
    } catch (...) {
    }
    code = 2;
  }
  // _exit: never run the parent's atexit handlers / static destructors in
  // the child (they belong to the coordinator process).
  ::_exit(code);
}

}  // namespace dqmc::fleet
