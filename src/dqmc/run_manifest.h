// Run manifest: a single JSON document capturing everything needed to
// understand (and re-run) a simulation after the fact — the configuration,
// seed provenance, per-phase timings, the metrics-registry snapshot, and the
// numerical-health summary. The bench harness and `dqmc_run --metrics-json`
// both emit this format; tests/tools/obs_json_check validates it.
#pragma once

#include <string>

#include "dqmc/simulation.h"
#include "obs/json.h"

namespace dqmc::core {

/// Build the manifest document for `results`. Reads the GLOBAL
/// obs::MetricsRegistry / obs::HealthMonitor / obs::EventLog state, so call
/// it before resetting them. Top-level keys: "manifest", "config",
/// "phases", "metrics", "backend", "runtime", "fault", "health", "events",
/// "batch" (a fleet run adds "fleet").
obs::Json run_manifest(const SimulationResults& results);

/// The deterministic subset of the manifest used as a golden regression
/// fixture (tests/fault/test_golden_manifest): configuration echo,
/// trajectory hash, sign, key measurement means, and the fault-recovery
/// counters. No timings, no host state. Doubles are rendered as 16-digit
/// hex IEEE-754 bit patterns ("bits") next to a rounded readable value, so
/// the serialized document is byte-stable wherever the trajectory is.
obs::Json golden_manifest(const SimulationResults& results);

/// Write run_manifest(results) to `path` (pretty-printed). Throws
/// dqmc::Error on I/O failure.
void write_run_manifest(const SimulationResults& results,
                        const std::string& path);
/// Same for a manifest document a caller extended (a fleet run adds its
/// "fleet" section).
void write_run_manifest(const obs::Json& manifest, const std::string& path);

}  // namespace dqmc::core
