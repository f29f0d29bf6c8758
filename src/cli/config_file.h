// QUEST-style plain-text input files: "key = value" lines with '#'
// comments. The paper notes that QUEST's lattice size and physical
// parameters are "very generally configurable through an input file" —
// this module provides the same workflow for dqmcpp (see examples/dqmc_run).
#pragma once

#include <map>
#include <set>
#include <string>

#include "cli/args.h"
#include "dqmc/simulation.h"
#include "dqmc/supervisor.h"
#include "fleet/options.h"

namespace dqmc::cli {

/// Parsed key/value file. Keys are case-sensitive; later duplicates win.
class ConfigFile {
 public:
  /// Parse from file contents (not a path; callers read the file).
  static ConfigFile parse(const std::string& text);
  /// Read and parse a file on disk; throws on I/O errors.
  static ConfigFile load(const std::string& path);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long get_long(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Overlay command-line options on the file: `--<key> value`, with the
  /// key spelled with `-` or `_`, overrides the file's `key`. Options named
  /// in `skip` (a driver's own flags) are left out; any other option must
  /// name a config key, or this throws naming the option.
  void overlay(const Args& args, const std::set<std::string>& skip = {});

  const std::map<std::string, std::string>& entries() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Build a SimulationConfig from a config file. Recognized keys (all
/// optional, QUEST-flavoured names):
///   lx, ly, layers, t, tperp, u, mu, beta, slices (or L),
///   warmup (or nwarm), sweeps (or npass), measure_interval,
///   measure_slice_interval, bins, seed,
///   algorithm (prepivot | qrp | svdstack),
///   cluster_size (or north), delay_rank, backend (host | gpusim),
///   kinetic (dense | checkerboard), walker_batch, checkpoint_in,
///   checkpoint_out
/// Unknown keys throw, so typos are caught, and the schedule is checked
/// (SimulationConfig::validate, e.g. a walker_batch below 1), so an
/// out-of-range value throws naming its key. The file may also carry the
/// keys read by supervisor_policy_from and fleet_config_from, plus the
/// driver-level `walkers` (chain count) and `failpoints` (arm spec — the
/// CALLER arms the global registry; parsing a file never does).
core::SimulationConfig simulation_config_from(const ConfigFile& file);

/// Supervisor knobs from the same file (max_retries,
/// checkpoint_interval); everything else keeps SupervisorPolicy defaults.
core::SupervisorPolicy supervisor_policy_from(const ConfigFile& file);

/// Fleet knobs from the same file: fleet_workers, fleet_wedge_timeout_ms,
/// fleet_max_reassigns; everything else keeps
/// FleetConfig defaults (fail-point arming and artifact paths stay driver
/// flags — they name per-invocation state, not the simulation).
fleet::FleetConfig fleet_config_from(const ConfigFile& file);

}  // namespace dqmc::cli
