// Fleet runtime knobs shared by the coordinator (fork, dealing and
// reassignment policy) and the worker children (fail-point arming).
#pragma once

#include <string>

#include "common/error.h"
#include "linalg/matrix.h"

namespace dqmc::fleet {

using linalg::idx;

struct FleetConfig {
  /// Worker processes to fork. Chains are dealt one at a time to idle
  /// workers in chain order, so any worker count yields the same merged
  /// result.
  idx workers = 2;
  /// Declare a silent worker wedged (and SIGKILL + reassign it) after this
  /// many milliseconds without a frame while it owns a shard. 0 disables —
  /// the default, since a legitimate segment can run long.
  idx wedge_timeout_ms = 0;
  /// Reassignments a single shard survives before the run aborts (guards
  /// against a shard that kills every worker it lands on).
  int max_reassigns = 3;
  /// Fail-point spec armed INSIDE worker processes (the coordinator's own
  /// registry is not touched). Workers first disarm everything inherited
  /// over fork, so this spec is the whole worker-side arming.
  std::string worker_failpoints;
  /// Which worker index arms worker_failpoints (-1 = all workers).
  int failpoint_worker = -1;

  /// Throws InvalidArgument naming the config key of the bad field.
  void validate() const {
    DQMC_CHECK_INPUT(workers >= 1, "fleet_workers must be >= 1");
    DQMC_CHECK_INPUT(max_reassigns >= 0, "fleet_max_reassigns must be >= 0");
    DQMC_CHECK_INPUT(wedge_timeout_ms >= 0,
                     "fleet_wedge_timeout_ms must be >= 0");
  }
};

}  // namespace dqmc::fleet
