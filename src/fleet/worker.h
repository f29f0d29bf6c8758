// Fleet worker: the child-process side of the coordinator/worker runtime.
//
// A worker is forked by run_fleet, speaks wire.h frames over two pipes, and
// runs each assigned shard — one chain — through the SAME CrowdSupervisor
// the single-process path uses, as a crowd of one, per-worker fault ladder
// included. It reads its pipe only between chains. At each committed
// segment boundary it sends progress and a resume snapshot up, so the
// coordinator can replay the chain elsewhere if the process dies; when
// that send fails the coordinator is gone, and the worker exits.
#pragma once

#include "dqmc/supervisor.h"
#include "fleet/options.h"

namespace dqmc::fleet {

using core::SimulationConfig;
using core::SupervisorPolicy;

/// Child-process entry point; never returns (terminates with _exit so the
/// parent's atexit/static-destructor state is never run twice). `read_fd` /
/// `write_fd` are the coordinator pipes. Must be called immediately after
/// fork(): it serializes the task runtime for the single surviving thread,
/// re-arms fail points from fleet.worker_failpoints, and redirects its crash
/// dump to a worker-unique path before touching any physics.
[[noreturn]] void worker_main(const SimulationConfig& config,
                              const SupervisorPolicy& policy,
                              const FleetConfig& fleet, int worker_index,
                              int read_fd, int write_fd);

/// The worker-unique forensic path for `base`: inserts ".w<index>.p<pid>"
/// before a trailing ".json"/".jsonl" extension (appends otherwise). The
/// worker dumps there; the coordinator names it in its worker table.
std::string worker_unique_path(const std::string& base, int worker_index,
                               long pid);

}  // namespace dqmc::fleet
