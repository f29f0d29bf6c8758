// Bench-regression gate: re-run a committed bench workload and compare the
// fresh numbers against its checked-in BENCH_*.json baseline, failing with a
// structured report when any row drifts past the noise tolerance.
//
//   ./bench_regress [--suite fleet|checkerboard|fft]
//                   [--baseline bench/BENCH_<suite>.json]
//                   [--tolerance 0.10] [--quick] [--report gate_report.json]
//                   [--inject-slowdown F] [--write-baseline FILE]
//
// The fleet and checkerboard suites replay gpusim virtual-clock bills, so
// their modeled device seconds are deterministic: a row drifting past the
// tolerance means the execution model changed, not the machine. They are
// model output, never a measured speedup. The checkerboard suite replays the
// ablation_checkerboard device workload (dense vs structured BackendBChain,
// bench_util's checkerboard_device_rows) against BENCH_checkerboard.json and
// additionally fails when a lattice whose baseline shows the checkerboard
// beating dense (speedup >= 1) no longer does. The fleet suite (the
// default) replays fleet runs (docs/FLEET.md) of 8 one-chain shards on
// gpusim against BENCH_fleet.json:
// the merged gpusim virtual-clock device seconds compare relatively, the
// protocol frame count exactly, and the trajectory hash must bitwise-match
// the single-process crowd baseline computed in the same invocation — a
// fleet that silently forks a trajectory fails the gate before any timing
// is compared. The fft suite
// replays the fft_measurements workload (bench_util's fft_measurement_rows)
// against BENCH_fft.json: the parity columns between the FFT path and its
// O(N^2) oracle (the "direct" columns) are held to an ABSOLUTE 1e-10
// contract (they are replay-exact — same synthetic Green's functions,
// deterministic kernels), while the wall-clock speedups are only
// crossover-gated — any lattice whose baseline shows the FFT path beating
// the oracle by >= 2x must still beat it at all — because wall seconds, unlike the other
// suites' virtual-clock bills, vary with the machine. --quick
// restricts each suite to its smallest rows for the opt-in ctest gates
// (label: bench-gate); --inject-slowdown multiplies the measured
// checkerboard / fleet device seconds (fft: the measured fft-path
// wall seconds) by F, a test hook that lets
// the WILL_FAIL ctest entries prove the gates actually trip on a
// regression. --write-baseline (fleet suite only) runs the workload and
// writes a fresh baseline file instead of comparing.
//
// Exit status: 0 all rows within tolerance, 1 regression detected, 2 bad
// usage / unreadable baseline.
#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "cli/args.h"
#include "dqmc/supervisor.h"
#include "fleet/coordinator.h"

namespace {

using namespace dqmc;
using linalg::idx;

struct Shape {
  idx lx, ly;
};

/// The fleet workload on an lx x ly lattice: U = 4, beta = 2, L = 8,
/// k = 4, delay rank 16, gpusim backend, 1 warmup + 2 measurement sweeps,
/// seed 17; the single-process oracle runs the 8 chains in crowds of 2.
core::SimulationConfig fleet_replay_config(idx lx, idx ly) {
  core::SimulationConfig cfg;
  cfg.lx = lx;
  cfg.ly = ly;
  cfg.model.u = 4.0;
  cfg.model.beta = 2.0;
  cfg.model.slices = 8;
  cfg.engine.cluster_size = 4;
  cfg.engine.delay_rank = 16;
  cfg.engine.backend = backend::BackendKind::kGpuSim;
  cfg.warmup_sweeps = 1;
  cfg.measurement_sweeps = 2;
  cfg.bins = 2;
  cfg.seed = 17;
  cfg.walker_batch = 2;
  return cfg;
}

/// The baseline row whose integer columns match every (column, value) in
/// `keys`, or nullptr.
const obs::Json* find_baseline_row(
    const obs::Json& rows,
    std::initializer_list<std::pair<const char*, idx>> keys) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const obs::Json& row = rows[i];
    if (std::all_of(keys.begin(), keys.end(), [&row](const auto& key) {
          return static_cast<idx>(row.at(key.first).number()) == key.second;
        })) {
      return &row;
    }
  }
  return nullptr;
}

double relative_error(double measured, double baseline) {
  const double denom = std::abs(baseline);
  if (denom == 0.0) return std::abs(measured) == 0.0 ? 0.0 : 1e30;
  return std::abs(measured - baseline) / denom;
}

struct FleetBenchRow {
  idx n = 0;
  idx workers = 0;
  bool hash_match = false;
  double device_seconds = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t snapshots = 0;
};

/// One deterministic fleet replay on the gpusim virtual clock, with the
/// single-process crowd run of the SAME config as the bitwise oracle.
FleetBenchRow run_fleet_row(const Shape& shape, idx workers) {
  const core::SimulationConfig cfg = fleet_replay_config(shape.lx, shape.ly);
  const idx chains = 8;  // 8 one-chain shards
  core::SupervisorPolicy policy;
  policy.checkpoint_interval = 2;  // one mid-run boundary => one snapshot

  const core::SimulationResults single =
      core::run_supervised_parallel(cfg, policy, chains);

  fleet::FleetConfig fc;
  fc.workers = workers;
  const fleet::FleetResult fleet =
      fleet::run_fleet(cfg, policy, fc, chains);

  FleetBenchRow row;
  row.n = cfg.lx * cfg.ly;
  row.workers = workers;
  row.hash_match = fleet.results.trajectory_hash == single.trajectory_hash;
  row.device_seconds = fleet.results.backend_stats.total_seconds();
  row.frames = fleet.fleet.frames_received;
  row.bytes = fleet.fleet.bytes_received;
  row.snapshots = fleet.fleet.snapshots;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv, {"suite", "baseline", "tolerance", "quick",
                              "report", "inject-slowdown", "write-baseline"});

  const std::string suite = args.get("suite", "fleet");
  if (suite != "checkerboard" && suite != "fleet" && suite != "fft") {
    std::fprintf(stderr,
                 "bench_regress: unknown suite '%s' (have: fleet, "
                 "checkerboard, fft)\n",
                 suite.c_str());
    return 2;
  }
  const std::string baseline_path =
      args.get("baseline", "bench/BENCH_" + suite + ".json");
  const double tolerance = args.get_double("tolerance", 0.10);
  const bool quick = args.get_flag("quick");
  const double slowdown = args.get_double("inject-slowdown", 1.0);
  if (tolerance <= 0.0 || slowdown <= 0.0) {
    std::fprintf(stderr, "bench_regress: --tolerance and --inject-slowdown "
                         "must be > 0\n");
    return 2;
  }

  const std::vector<std::pair<Shape, idx>> fleet_full_spec = {
      {{8, 8}, 2}, {{8, 8}, 4}, {{16, 8}, 4}};
  const std::vector<std::pair<Shape, idx>> fleet_rows_spec =
      quick ? std::vector<std::pair<Shape, idx>>{{{8, 8}, 4}}
            : fleet_full_spec;

  if (suite == "fleet" && args.has("write-baseline")) {
    // Regenerate the committed baseline from a fresh replay (always the
    // full row set: the quick gate reads a subset of the same file).
    obs::Json rows = obs::Json::array();
    for (const auto& [shape, workers] : fleet_full_spec) {
      const FleetBenchRow row = run_fleet_row(shape, workers);
      if (!row.hash_match) {
        std::fprintf(stderr, "bench_regress: fleet hash mismatch at n=%lld "
                             "— refusing to write a corrupt baseline\n",
                     static_cast<long long>(row.n));
        return 1;
      }
      rows.push_back(obs::Json::object()
                         .set("n", row.n)
                         .set("workers", row.workers)
                         .set("fleet_device_seconds", row.device_seconds)
                         .set("frames", row.frames)
                         .set("bytes", row.bytes)
                         .set("snapshots", row.snapshots));
    }
    const obs::Json doc =
        obs::Json::object()
            .set("manifest", obs::Json::object()
                                 .set("program", "dqmcpp-bench")
                                 .set("bench", "fleet")
                                 .set("format_version", 1))
            .set("results", std::move(rows));
    const std::string out_path = args.get("write-baseline", "");
    std::ofstream out(out_path);
    out << doc.dump(2) << '\n';
    if (!out.good()) {
      std::fprintf(stderr, "bench_regress: failed writing %s\n",
                   out_path.c_str());
      return 2;
    }
    std::printf("fleet baseline written to %s\n", out_path.c_str());
    return 0;
  }

  std::ifstream in(baseline_path);
  if (!in.good()) {
    std::fprintf(stderr, "bench_regress: cannot open baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  obs::Json baseline;
  try {
    baseline = obs::Json::parse(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_regress: malformed baseline %s: %s\n",
                 baseline_path.c_str(), e.what());
    return 2;
  }
  const obs::Json* baseline_rows = baseline.find("results");
  if (baseline_rows == nullptr || !baseline_rows->is_array()) {
    std::fprintf(stderr, "bench_regress: baseline %s has no results array\n",
                 baseline_path.c_str());
    return 2;
  }

  bench::banner("bench_regress",
                "re-run committed benches against BENCH_*.json baselines");
  std::printf("suite: %s  baseline: %s  tolerance: %.0f%%%s%s\n\n",
              suite.c_str(), baseline_path.c_str(), 100.0 * tolerance,
              quick ? "  (quick subset)" : "",
              slowdown != 1.0 ? "  [synthetic slowdown injected]" : "");

  obs::Json report_rows = obs::Json::array();
  int failures = 0;
  // Every suite ends alike: the structured report (when --report names a
  // file), the verdict line, and the exit status.
  const auto finish = [&](const std::string& why) {
    const bool pass = failures == 0;
    const obs::Json report =
        obs::Json::object()
            .set("gate_version", 1)
            .set("suite", suite)
            .set("baseline", baseline_path)
            .set("tolerance", tolerance)
            .set("quick", quick)
            .set("injected_slowdown", slowdown)
            .set("rows", report_rows)
            .set("failures", failures)
            .set("status", pass ? "pass" : "fail");
    const std::string report_path = args.get("report", "");
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      out << report.dump(2) << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "bench_regress: failed writing report %s\n",
                     report_path.c_str());
        return 2;
      }
    }
    std::printf("\nbench gate: %s (%d row%s %s)\n", pass ? "PASS" : "FAIL",
                failures, failures == 1 ? "" : "s", why.c_str());
    return pass ? 0 : 1;
  };
  char outside_tolerance[64];
  std::snprintf(outside_tolerance, sizeof outside_tolerance,
                "outside the %.0f%% tolerance", 100.0 * tolerance);

  if (suite == "fleet") {
    // Deterministic replay of the multi-process fleet: the
    // merged virtual-clock device seconds compare relatively, the protocol
    // frame count exactly (the frame schedule is a structural invariant of
    // the coordinator/worker handshake), and the trajectory hash must
    // bitwise-match the single-process crowd run before timing is even
    // considered.
    cli::Table table({"N", "workers", "fleet s (base)", "fleet s (now)",
                      "frames (base)", "frames (now)", "max rel err",
                      "status"});
    for (const auto& [shape, workers] : fleet_rows_spec) {
      FleetBenchRow fresh = run_fleet_row(shape, workers);
      // The injection hook scales the modeled device bill the way a real
      // slowdown in the sharded hot path would.
      fresh.device_seconds *= slowdown;

      obs::Json row =
          obs::Json::object().set("n", fresh.n).set("workers", workers);
      std::string status;
      double max_err = 0.0;
      if (!fresh.hash_match) {
        status = "TRAJECTORY MISMATCH";
        ++failures;
        table.add_row({cli::Table::integer(static_cast<long>(fresh.n)),
                       cli::Table::integer(static_cast<long>(workers)), "-",
                       "-", "-", "-", "-", status});
      } else {
        const obs::Json* base =
            find_baseline_row(*baseline_rows,
                              {{"n", fresh.n}, {"workers", workers}});
        if (base == nullptr) {
          status = "NO BASELINE ROW";
          ++failures;
          table.add_row({cli::Table::integer(static_cast<long>(fresh.n)),
                         cli::Table::integer(static_cast<long>(workers)), "-",
                         "-", "-", "-", "-", status});
        } else {
          const double base_seconds =
              base->at("fleet_device_seconds").number();
          const auto base_frames =
              static_cast<std::uint64_t>(base->at("frames").number());
          max_err = relative_error(fresh.device_seconds, base_seconds);
          bool ok = max_err <= tolerance;
          status = ok ? "ok" : "REGRESSION";
          if (fresh.frames != base_frames) {
            status = "PROTOCOL DRIFT";
            ok = false;
          }
          if (!ok) ++failures;
          row.set("baseline_fleet_device_seconds", base_seconds)
              .set("measured_fleet_device_seconds", fresh.device_seconds)
              .set("baseline_frames", base_frames)
              .set("measured_frames", fresh.frames)
              .set("measured_bytes", fresh.bytes)
              .set("measured_snapshots", fresh.snapshots)
              .set("relative_error_seconds", max_err);
          table.add_row({cli::Table::integer(static_cast<long>(fresh.n)),
                         cli::Table::integer(static_cast<long>(workers)),
                         cli::Table::num(base_seconds, 6),
                         cli::Table::num(fresh.device_seconds, 6),
                         cli::Table::integer(static_cast<long>(base_frames)),
                         cli::Table::integer(static_cast<long>(fresh.frames)),
                         cli::Table::num(max_err, 4), status});
        }
      }
      row.set("max_relative_error", max_err).set("status", status);
      report_rows.push_back(std::move(row));
    }
    table.print();
    return finish(outside_tolerance);
  }

  if (suite == "fft") {
    // Deterministic replay of the fft_measurements workload: the parity
    // columns are absolute contracts (the synthetic inputs and both
    // kernels are deterministic, so any drift means the arithmetic
    // changed), the wall-clock speedups only hold the crossover — a
    // lattice whose committed baseline shows the FFT path >= 2x faster
    // must not fall below parity speed.
    constexpr double kParityLimit = 1e-10;
    constexpr double kCrossoverAt = 2.0;
    const obs::Json rows = bench::fft_measurement_rows(quick);
    cli::Table table({"N", "eqtime speedup (base)", "eqtime speedup (now)",
                      "dyn speedup (base)", "dyn speedup (now)", "max dev",
                      "status"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const obs::Json& fresh = rows[i];
      const idx n = static_cast<idx>(fresh.at("n").number());
      // The injection hook slows only the FFT path, the way a regression
      // in the planned transforms or the fused gathers would.
      const double et_fft = fresh.at("et_fft_seconds").number() * slowdown;
      const double dyn_fft = fresh.at("dyn_fft_seconds").number() * slowdown;
      const double et_speedup = fresh.at("et_direct_seconds").number() / et_fft;
      const double dyn_speedup =
          fresh.at("dyn_direct_seconds").number() / dyn_fft;
      const double max_dev = std::max(fresh.at("et_max_dev").number(),
                                      fresh.at("dyn_max_dev").number());

      obs::Json row = obs::Json::object().set("n", n);
      std::string status;
      const obs::Json* base = find_baseline_row(*baseline_rows, {{"n", n}});
      if (base == nullptr) {
        status = "NO BASELINE ROW";
        ++failures;
        table.add_row({cli::Table::integer(static_cast<long>(n)), "-", "-",
                       "-", "-", "-", status});
      } else {
        const double base_et = base->at("et_speedup").number();
        const double base_dyn = base->at("dyn_speedup").number();
        bool ok = true;
        status = "ok";
        if (max_dev > kParityLimit) {
          status = "PARITY DRIFT";
          ok = false;
        }
        if ((base_et >= kCrossoverAt && et_speedup < 1.0) ||
            (base_dyn >= kCrossoverAt && dyn_speedup < 1.0)) {
          status = "CROSSOVER LOST";
          ok = false;
        }
        if (!ok) ++failures;
        row.set("baseline_et_speedup", base_et)
            .set("measured_et_speedup", et_speedup)
            .set("baseline_dyn_speedup", base_dyn)
            .set("measured_dyn_speedup", dyn_speedup)
            .set("measured_et_fft_seconds", et_fft)
            .set("measured_dyn_fft_seconds", dyn_fft)
            .set("measured_max_dev", max_dev);
        table.add_row({cli::Table::integer(static_cast<long>(n)),
                       cli::Table::num(base_et, 2),
                       cli::Table::num(et_speedup, 2),
                       cli::Table::num(base_dyn, 2),
                       cli::Table::num(dyn_speedup, 2),
                       cli::Table::num(max_dev, 12), status});
      }
      row.set("max_relative_error", 0.0).set("status", status);
      report_rows.push_back(std::move(row));
    }
    table.print();
    return finish("failed the parity/crossover contracts");
  }

  // Checkerboard suite: deterministic replay of the ablation_checkerboard
  // device workload:
  // compare the structured-chain seconds and the dense/cb speedup against
  // the committed baseline, and hold the crossover — any lattice whose
  // baseline says the checkerboard wins must still win.
  const obs::Json rows = bench::checkerboard_device_rows(quick);
  cli::Table table({"N", "cb s (base)", "cb s (now)", "speedup (base)",
                    "speedup (now)", "max rel err", "status"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const obs::Json& fresh = rows[i];
    const idx n = static_cast<idx>(fresh.at("n").number());
    const double dense_seconds = fresh.at("dense_device_seconds").number();
    // The injection hook slows only the structured path, the way a
    // regression in the bond-table replay would.
    const double cb_seconds =
        fresh.at("cb_device_seconds").number() * slowdown;
    const double speedup = dense_seconds / cb_seconds;

    obs::Json row = obs::Json::object().set("n", n);
    std::string status;
    double max_err = 0.0;
    const obs::Json* base = find_baseline_row(*baseline_rows, {{"n", n}});
    if (base == nullptr) {
      status = "NO BASELINE ROW";
      ++failures;
      table.add_row({cli::Table::integer(static_cast<long>(n)), "-", "-",
                     "-", "-", "-", status});
    } else {
      const double base_seconds = base->at("cb_device_seconds").number();
      const double base_speedup = base->at("speedup").number();
      const double err_seconds = relative_error(cb_seconds, base_seconds);
      const double err_speedup = relative_error(speedup, base_speedup);
      max_err = std::max(err_seconds, err_speedup);
      bool ok = max_err <= tolerance;
      status = ok ? "ok" : "REGRESSION";
      if (base_speedup >= 1.0 && speedup < 1.0) {
        status = "CROSSOVER LOST";
        ok = false;
      }
      if (!ok) ++failures;
      row.set("baseline_cb_device_seconds", base_seconds)
          .set("measured_cb_device_seconds", cb_seconds)
          .set("measured_dense_device_seconds", dense_seconds)
          .set("baseline_speedup", base_speedup)
          .set("measured_speedup", speedup)
          .set("relative_error_seconds", err_seconds)
          .set("relative_error_speedup", err_speedup);
      table.add_row({cli::Table::integer(static_cast<long>(n)),
                     cli::Table::num(base_seconds, 6),
                     cli::Table::num(cb_seconds, 6),
                     cli::Table::num(base_speedup, 2),
                     cli::Table::num(speedup, 2),
                     cli::Table::num(max_err, 4), status});
    }
    row.set("max_relative_error", max_err).set("status", status);
    report_rows.push_back(std::move(row));
  }
  table.print();
  return finish(outside_tolerance);
}
