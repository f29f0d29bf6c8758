// Dynamic (imaginary-time) response functions — QUEST's "dynamic
// measurement" capability on top of the stable time-displaced Green's
// functions: the local propagator Gloc(tau) and the staggered spin
// susceptibility chi_AF(tau) with its tau-integral.
//
//   ./dynamic_response [--l 4] [--u 4.0] [--beta 4.0] [--slices 40]
//                      [--warmup 50] [--sweeps 100] [--seed 6]
#include <algorithm>
#include <cstdio>

#include "cli/args.h"
#include "cli/table.h"
#include "common/stopwatch.h"
#include "dqmc/dynamic_measurements.h"
#include "dqmc/engine.h"

int main(int argc, char** argv) {
  using namespace dqmc;
  using linalg::idx;
  cli::Args args(argc, argv,
                 {"l", "u", "beta", "slices", "warmup", "sweeps", "seed"});

  hubbard::Lattice lat(args.get_long("l", 4), args.get_long("l", 4));
  hubbard::ModelParams model;
  model.u = args.get_double("u", 4.0);
  model.beta = args.get_double("beta", 4.0);
  model.slices = args.get_long("slices", 40);
  const idx warmup = args.get_long("warmup", 50);
  const idx sweeps = args.get_long("sweeps", 100);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 6));

  std::printf("dynamic response: %lldx%lld, U=%.2f, beta=%.2f, L=%lld\n",
              static_cast<long long>(lat.lx()), static_cast<long long>(lat.ly()),
              model.u, model.beta, static_cast<long long>(model.slices));

  const core::EngineConfig config;
  core::DqmcEngine engine(lat, model, config, seed);
  engine.initialize();
  for (idx s = 0; s < warmup; ++s) engine.sweep();

  // Each measurement streams the time-displaced Green's functions one
  // cluster segment at a time over the side the sweep stored in the
  // engine's boundary stacks; the segment buffers live in the workspace.
  core::MeasurementWorkspace ws(lat);
  core::DynamicAccumulator acc(model.slices);
  Stopwatch watch;
  for (idx s = 0; s < sweeps; ++s) {
    engine.sweep();
    acc.add(core::measure_dynamic(lat, model.dtau(), engine, ws),
            engine.config_sign());
  }

  std::printf("measured %lld configurations in %s\n\n",
              static_cast<long long>(sweeps),
              format_seconds(watch.seconds()).c_str());

  cli::Table table({"tau", "Gloc(tau)", "err", "chi_AF(tau)", "err"});
  const idx stride = std::max<idx>(1, model.slices / 10);
  for (idx l = 0; l <= model.slices; l += stride) {
    const auto g = acc.gloc(l);
    const auto x = acc.chi_af(l);
    table.add_row({cli::Table::num(model.dtau() * static_cast<double>(l), 2),
                   cli::Table::num(g.mean, 4), cli::Table::num(g.error, 4),
                   cli::Table::num(x.mean, 4), cli::Table::num(x.error, 4)});
  }
  table.print();

  const auto chi = acc.chi_af_integrated();
  std::printf("\nintegrated AF susceptibility chi_AF = %s\n",
              cli::Table::pm(chi.mean, chi.error).c_str());
  std::printf("Gloc decays from n-like weight at tau=0 toward its\n"
              "anti-periodic partner at tau=beta; chi_AF(tau) is widest when\n"
              "antiferromagnetic correlations are strong (large U, low T).\n");
  return 0;
}
