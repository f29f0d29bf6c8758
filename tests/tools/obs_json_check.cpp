// Validator behind the observability smoke test: checks that the JSON
// artifacts emitted by `dqmc_run --trace-json ... --metrics-json ...` parse
// and contain the keys downstream tooling depends on. Exits non-zero (with
// a message on stderr) on any missing key, failing the ctest entry.
//
//   obs_json_check [--trace trace.json] --metrics metrics.json
//
// --trace is optional: a fleet run writes a manifest but no trace.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

using dqmc::obs::Json;

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "obs_json_check: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

int failures = 0;

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "obs_json_check: FAILED: %s\n", what);
    ++failures;
  }
}

const Json* walk(const Json& root, const Json** out, const char* a,
                 const char* b = nullptr) {
  const Json* v = root.find(a);
  if (v != nullptr && b != nullptr) v = v->find(b);
  *out = v;
  return v;
}

void check_trace(const Json& trace) {
  const Json* events = trace.find("traceEvents");
  require(events != nullptr && events->is_array(),
          "trace has a traceEvents array");
  if (events == nullptr || !events->is_array()) return;

  // Every Table-I phase must appear as a complete span.
  const char* phases[] = {"Delayed rank-1 update", "Stratification",
                          "Clustering", "Wrapping", "Physical meas."};
  for (const char* phase : phases) {
    bool found = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& e = (*events)[i];
      const Json* name = e.find("name");
      const Json* ph = e.find("ph");
      if (name != nullptr && name->is_string() && name->str() == phase &&
          ph != nullptr && ph->is_string() && ph->str() == "X") {
        found = true;
        break;
      }
    }
    char msg[128];
    std::snprintf(msg, sizeof msg, "trace contains an 'X' span for '%s'",
                  phase);
    require(found, msg);
  }
}

void check_manifest(const Json& m) {
  const Json* v = nullptr;
  require(walk(m, &v, "manifest", "seed") && v->is_number(),
          "manifest.seed is present");
  require(walk(m, &v, "manifest", "program") && v->is_string(),
          "manifest.program is present");
  require(walk(m, &v, "phases") && v->is_object(), "phases is present");
  if (m.find("phases") != nullptr) {
    const Json& phases = m.at("phases");
    require(phases.has("total_seconds"), "phases contains total_seconds");
    // Every run sweeps: the four sweep phases were billed.
    for (const char* phase : {"Delayed rank-1 update", "Stratification",
                              "Clustering", "Wrapping"}) {
      const Json* calls = nullptr;
      char msg[128];
      std::snprintf(msg, sizeof msg, "phases.%s has nonzero calls", phase);
      require(walk(phases, &calls, phase, "calls") && calls->is_number() &&
                  calls->number() > 0,
              msg);
    }
  }
  require(walk(m, &v, "metrics", "accept_rate") && v->is_number(),
          "metrics.accept_rate is present");
  require(walk(m, &v, "health", "wrap_drift") && v->is_object(),
          "health.wrap_drift is present");
  // Every run sweeps, so a monitored run holds samples of both signals (a
  // fleet's are its workers', merged).
  const Json* enabled = nullptr;
  if (walk(m, &enabled, "health", "enabled") && enabled->is_bool() &&
      enabled->boolean()) {
    const Json& health = m.at("health");
    require(walk(health, &v, "wrap_drift", "count") && v->is_number() &&
                v->number() > 0,
            "health.wrap_drift.count > 0");
    require(walk(health, &v, "sign_samples") && v->is_number() &&
                v->number() > 0,
            "health.sign_samples > 0");
  }
  require(walk(m, &v, "config") && v->is_object(), "config is present");
  require(walk(m, &v, "config", "backend") && v->is_string(),
          "config.backend is present");
  require(walk(m, &v, "backend", "name") && v->is_string(),
          "backend.name is present");
  require(walk(m, &v, "backend", "compute_seconds") && v->is_number(),
          "backend.compute_seconds is present");
  require(walk(m, &v, "backend", "device") && v->is_object(),
          "backend.device section is present");
  if (m.find("backend") != nullptr && m.at("backend").has("device")) {
    const Json& dev = m.at("backend").at("device");
    require(dev.has("exposed_wait_seconds"),
            "backend.device.exposed_wait_seconds is present");
    require(dev.has("pipeline_seconds"),
            "backend.device.pipeline_seconds is present");
  }
  // Every run steps its chains in crowds of at least one walker.
  require(walk(m, &v, "batch", "walkers") && v->is_number() &&
              v->number() >= 1,
          "batch.walkers is present and >= 1");
  require(walk(m, &v, "batch", "crowds") && v->is_number() &&
              v->number() >= 1,
          "batch.crowds is present and >= 1");
  const Json* reg = nullptr;
  require(walk(m, &reg, "metrics", "registry") && reg->is_object(),
          "metrics.registry is present");
  if (reg != nullptr && reg->is_object()) {
    // A fleet's registry holds its workers' metrics, merged, so every run's
    // registry records the flush rate.
    const Json* rec = nullptr;
    require(walk(*reg, &rec, "histograms", "gemm.gflops"),
            "metrics.registry records gemm.gflops");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--trace") trace_path = argv[i + 1];
    else if (flag == "--metrics") metrics_path = argv[i + 1];
  }
  if (metrics_path.empty()) {
    std::fprintf(stderr,
                 "usage: obs_json_check [--trace FILE] --metrics FILE\n");
    return 2;
  }

  try {
    if (!trace_path.empty()) check_trace(load(trace_path));
    check_manifest(load(metrics_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_json_check: exception: %s\n", e.what());
    return 1;
  }

  if (failures > 0) {
    std::fprintf(stderr, "obs_json_check: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("obs_json_check: all checks passed\n");
  return 0;
}
