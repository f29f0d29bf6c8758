#include "cli/config_file.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.h"

namespace dqmc::cli {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

bool is_config_key(const std::string& key) {
  static const std::set<std::string> kKnown = {
      "lx", "ly", "layers", "t", "tperp", "u", "mu", "beta",
      "slices", "L", "warmup", "nwarm", "sweeps", "npass",
      "measure_interval", "measure_slice_interval", "measure_dynamic_interval",
      "bins", "seed",
      "algorithm",
      "cluster_size", "north", "delay_rank", "backend", "kinetic",
      "checkpoint_in", "checkpoint_out",
      "failpoints", "max_retries", "checkpoint_interval",
      "walkers", "walker_batch",
      "fleet_workers", "fleet_wedge_timeout_ms", "fleet_max_reassigns"};
  return kKnown.count(key) > 0;
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    DQMC_CHECK_INPUT(eq != std::string::npos,
                     "config line " + std::to_string(lineno) +
                         " is not 'key = value': " + line);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    DQMC_CHECK_INPUT(!key.empty(), "empty key on config line " +
                                       std::to_string(lineno));
    cfg.values_[key] = value;
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  DQMC_CHECK_INPUT(in.good(), "cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool ConfigFile::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string ConfigFile::get(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

long ConfigFile::get_long(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parse_long(it->second, "config key '" + key + "'");
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parse_double(it->second, "config key '" + key + "'");
}

void ConfigFile::overlay(const Args& args,
                         const std::set<std::string>& skip) {
  for (const auto& [name, value] : args.entries()) {
    if (skip.count(name) > 0) continue;
    std::string key = name;
    std::replace(key.begin(), key.end(), '-', '_');
    DQMC_CHECK_INPUT(is_config_key(key), "unknown option --" + name);
    values_[key] = value;
  }
}

core::SimulationConfig simulation_config_from(const ConfigFile& file) {
  for (const auto& [key, value] : file.entries()) {
    DQMC_CHECK_INPUT(is_config_key(key), "unknown config key: " + key);
    (void)value;
  }

  core::SimulationConfig cfg;
  cfg.lx = file.get_long("lx", 4);
  cfg.ly = file.get_long("ly", cfg.lx);
  cfg.layers = file.get_long("layers", 1);
  cfg.model.t = file.get_double("t", 1.0);
  cfg.model.t_perp = file.get_double("tperp", cfg.model.t);
  cfg.model.u = file.get_double("u", 4.0);
  cfg.model.mu = file.get_double("mu", 0.0);
  cfg.model.beta = file.get_double("beta", 4.0);
  cfg.model.slices = file.get_long("slices", file.get_long("L", 40));
  cfg.warmup_sweeps = file.get_long("warmup", file.get_long("nwarm", 100));
  cfg.measurement_sweeps = file.get_long("sweeps", file.get_long("npass", 200));
  cfg.measure_interval = file.get_long("measure_interval", 1);
  cfg.measure_slice_interval = file.get_long("measure_slice_interval", 0);
  cfg.measure_dynamic_interval = file.get_long("measure_dynamic_interval", 0);
  cfg.bins = file.get_long("bins", 16);
  cfg.seed = static_cast<std::uint64_t>(file.get_long("seed", 1));

  const std::string alg = file.get("algorithm", "prepivot");
  if (alg == "prepivot") {
    cfg.engine.algorithm = core::StratAlgorithm::kPrePivot;
  } else if (alg == "qrp") {
    cfg.engine.algorithm = core::StratAlgorithm::kQRP;
  } else if (alg == "svdstack") {
    cfg.engine.algorithm = core::StratAlgorithm::kSvdStack;
  } else {
    throw InvalidArgument(
        "algorithm must be 'prepivot', 'qrp' or 'svdstack', got '" + alg +
        "'");
  }
  cfg.engine.cluster_size =
      file.get_long("cluster_size", file.get_long("north", 10));
  cfg.engine.delay_rank = file.get_long("delay_rank", 32);
  // "backend = host|gpusim" selects the compute backend.
  cfg.engine.backend =
      backend::backend_kind_from_string(file.get("backend", "host"));
  // "kinetic = dense|checkerboard" selects the kinetic-factor
  // representation (dense GEMM vs split-bond replay).
  cfg.engine.kinetic =
      hubbard::kinetic_kind_from_string(file.get("kinetic", "dense"));
  // Walker-crowd size (>= 1; 1 = every chain its own crowd). The companion
  // `walkers` key — how many chains to run — is read by the driver, not
  // here: it selects between the single- and multi-chain entry points
  // rather than shaping the SimulationConfig.
  cfg.walker_batch = file.get_long("walker_batch", 1);
  cfg.checkpoint_in = file.get("checkpoint_in", "");
  cfg.checkpoint_out = file.get("checkpoint_out", "");
  cfg.validate();
  return cfg;
}

core::SupervisorPolicy supervisor_policy_from(const ConfigFile& file) {
  core::SupervisorPolicy policy;
  policy.max_retries =
      static_cast<int>(file.get_long("max_retries", policy.max_retries));
  policy.checkpoint_interval =
      file.get_long("checkpoint_interval", policy.checkpoint_interval);
  policy.validate();
  return policy;
}

fleet::FleetConfig fleet_config_from(const ConfigFile& file) {
  fleet::FleetConfig fc;
  fc.workers = file.get_long("fleet_workers", fc.workers);
  fc.wedge_timeout_ms =
      file.get_long("fleet_wedge_timeout_ms", fc.wedge_timeout_ms);
  fc.max_reassigns =
      static_cast<int>(file.get_long("fleet_max_reassigns", fc.max_reassigns));
  fc.validate();
  return fc;
}

}  // namespace dqmc::cli
