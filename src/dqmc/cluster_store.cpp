#include "dqmc/cluster_store.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace dqmc::core {

ClusterStore::ClusterStore(const BMatrixFactory& factory, const HSField& field,
                           idx cluster_size)
    : factory_(factory), field_(field), cluster_size_(cluster_size) {
  DQMC_CHECK(cluster_size >= 1);
  DQMC_CHECK(field.sites() == factory.n());
  num_clusters_ = (field.slices() + cluster_size - 1) / cluster_size;
  for (auto& v : clusters_)
    v.assign(static_cast<std::size_t>(num_clusters_), Matrix());
}

idx ClusterStore::cluster_end(idx c) const {
  return std::min(field_.slices(), (c + 1) * cluster_size_);
}

void ClusterStore::attach_backend(backend::BackendBChain* up,
                                  backend::BackendBChain* dn) {
  DQMC_CHECK_MSG((up == nullptr) == (dn == nullptr),
                 "attach_backend needs both spin chains or neither");
  if (up) DQMC_CHECK(up->n() == factory_.n() && dn->n() == factory_.n());
  chain_[0] = up;
  chain_[1] = dn;
}

std::vector<linalg::Vector> ClusterStore::diagonals(Spin s, idx c) const {
  std::vector<linalg::Vector> vs;
  for (idx l = cluster_begin(c); l < cluster_end(c); ++l)
    vs.push_back(factory_.v_diagonal(field_.slice(l), s));
  return vs;
}

void record_cluster_products(const BMatrixFactory& factory, idx factors,
                             double seconds) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.count("cluster.rebuilds");
  if (reg.enabled() && seconds > 0.0 && factors > 1) {
    const idx n = factory.n();
    const double flops = 2.0 * backend::cluster_product_flops(
                                   n, factors, factory.kinetic().apply_flops(n));
    reg.observe("cluster.gflops", flops / seconds / 1e9);
  }
}

void form_cluster_product(const BMatrixFactory& factory, const HSField& field,
                          Spin s, idx begin, idx end, Matrix& out,
                          Matrix& work) {
  DQMC_CHECK(begin < end);
  const idx n = factory.n();
  out = factory.make_b(field.slice(begin), s);
  work.resize(n, n);
  for (idx l = begin + 1; l < end; ++l) {
    // out <- B_l * out (a kinetic apply + row scaling via the factory).
    factory.apply_b_left(field.slice(l), s, out, work);
    std::swap(out, work);
  }
}

void ClusterStore::rebuild(idx c, Profiler* prof) {
  DQMC_CHECK(c >= 0 && c < num_clusters_);
  ScopedPhase phase(prof, Phase::kClustering);
  phase.arg("cluster", static_cast<double>(c));
  for (Spin s : hubbard::kSpins) {
    const int si = spin_index(s);
    Matrix& prod = clusters_[si][static_cast<std::size_t>(c)];
    if (chain_[si]) {
      prod = std::move(chain_[si]->cluster_product({diagonals(s, c)})[0]);
    } else {
      Matrix work;
      form_cluster_product(factory_, field_, s, cluster_begin(c),
                           cluster_end(c), prod, work);
    }
  }
  record_cluster_products(factory_, cluster_end(c) - cluster_begin(c),
                          phase.close());
}

void ClusterStore::rebuild_all(Profiler* prof) {
  for (idx c = 0; c < num_clusters_; ++c) rebuild(c, prof);
}

const Matrix& ClusterStore::cluster(Spin s, idx c) const {
  DQMC_CHECK(c >= 0 && c < num_clusters_);
  const Matrix& m = clusters_[spin_index(s)][static_cast<std::size_t>(c)];
  DQMC_CHECK_MSG(!m.empty(), "cluster not built; call rebuild_all first");
  return m;
}

std::vector<const Matrix*> ClusterStore::rotation(Spin s, idx start) const {
  DQMC_CHECK(start >= 0 && start < num_clusters_);
  std::vector<const Matrix*> order;
  order.reserve(static_cast<std::size_t>(num_clusters_));
  for (idx i = 0; i < num_clusters_; ++i) {
    order.push_back(&cluster(s, (start + i) % num_clusters_));
  }
  return order;
}

}  // namespace dqmc::core
