#include "backend/bchain.h"

#include <numeric>

#include "fault/failpoint.h"
#include "obs/event_log.h"
#include "parallel/task_runtime.h"
#include "parallel/topology.h"

namespace dqmc::backend {

namespace {

// Fail points at the enqueue path: the generic site plus a
// backend-qualified one, so tests can fault only the gpusim path (a
// persistent backend.enqueue.gpusim fault goes quiet after the supervisor
// degrades the chain to the host backend). Hit once per composite: a fault
// here is attributed to every item of the chain (no single walker can be
// blamed for a batched launch).
void enqueue_failpoint(const ComputeBackend& backend) {
  const bool gpusim = backend.kind() == BackendKind::kGpuSim;
  DQMC_EVENT(obs::EventKind::kEnqueue, "bchain.composite",
             gpusim ? "gpusim" : "host");
  DQMC_FAILPOINT("backend.enqueue");
  DQMC_FAILPOINT(gpusim ? "backend.enqueue.gpusim" : "backend.enqueue.host");
}

// The handles of the selected items in the two forms the batched calls
// take.
template <typename H>
std::vector<H*> mut(const std::vector<std::unique_ptr<H>>& owned,
                    const std::vector<idx>& items) {
  std::vector<H*> out;
  out.reserve(items.size());
  for (const idx i : items) {
    out.push_back(owned[static_cast<std::size_t>(i)].get());
  }
  return out;
}

template <typename H>
std::vector<const H*> cref(const std::vector<std::unique_ptr<H>>& owned,
                           const std::vector<idx>& items) {
  std::vector<const H*> out;
  out.reserve(items.size());
  for (const idx i : items) {
    out.push_back(owned[static_cast<std::size_t>(i)].get());
  }
  return out;
}

// Run a composite's `count` entries through `range(first, n)`: on an
// asynchronous backend all at once (its batched ops go to the stream in one
// submission); on a synchronous one, one task per entry issuing one-item
// ops, since a synchronous batched op forks and joins its items per op (at
// a share of 1 the entries run in order, without building a TaskGroup).
// Per item the arithmetic is the same either way.
template <typename Range>
void for_entries(const ComputeBackend& backend, std::size_t count,
                 const Range& range) {
  if (backend.async() || count == 1) {
    range(0, count);
    return;
  }
  if (par::num_threads() == 1) {
    for (std::size_t i = 0; i < count; ++i) range(i, 1);
    return;
  }
  par::TaskGroup group(static_cast<int>(count));
  for (std::size_t i = 0; i < count; ++i) {
    group.run([&range, i] { range(i, 1); });
  }
  group.wait();
}

}  // namespace

BackendBChain::BackendBChain(ComputeBackend& backend, ConstMatrixView b,
                             ConstMatrixView binv, idx items)
    : backend_(backend), n_(b.rows()), items_(items) {
  DQMC_CHECK(b.rows() == b.cols());
  DQMC_CHECK(binv.rows() == n_ && binv.cols() == n_);
  b_ = backend_.alloc_matrix(n_, n_);
  binv_ = backend_.alloc_matrix(n_, n_);
  backend_.upload(b, *b_);
  backend_.upload(binv, *binv_);
  alloc_items();
}

BackendBChain::BackendBChain(ComputeBackend& backend,
                             const linalg::KineticFactor& op, idx items)
    : backend_(backend), n_(linalg::kinetic_n(op)), items_(items) {
  // No resident dense factors and no GEMM scratch: every kinetic factor
  // applies in place. The identity seed bootstraps cluster products (A
  // starts as I, then A <- B A per factor).
  kinetic_ = backend_.alloc_kinetic(op);
  ident_ = backend_.alloc_matrix(n_, n_);
  backend_.upload(Matrix::identity(n_), *ident_);
  alloc_items();
}

void BackendBChain::alloc_items() {
  DQMC_CHECK(items_ >= 1);
  for (idx i = 0; i < items_; ++i) {
    g_.push_back(backend_.alloc_matrix(n_, n_));
    if (!structured()) t_.push_back(backend_.alloc_matrix(n_, n_));
    a_.push_back(backend_.alloc_matrix(n_, n_));
    v_.push_back(backend_.alloc_vector(n_));
  }
  g_resident_.assign(static_cast<std::size_t>(items_), 0);
  wrap_uploads_skipped_.assign(static_cast<std::size_t>(items_), 0);
}

std::vector<idx> BackendBChain::resolve(std::vector<idx> items,
                                        std::size_t count) const {
  if (items.empty()) {
    items.resize(count);
    std::iota(items.begin(), items.end(), idx{0});
  }
  DQMC_CHECK_MSG(items.size() == count, "one chain item per entry");
  for (const idx i : items) DQMC_CHECK(i >= 0 && i < items_);
  return items;
}

std::vector<Matrix> BackendBChain::cluster_product(
    const std::vector<std::vector<Vector>>& vs) {
  std::vector<Matrix> out;
  std::vector<MatrixView> views;
  out.reserve(vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    out.emplace_back(n_, n_);
    views.push_back(out.back().view());
  }
  cluster_product_into(vs, views);
  return out;
}

void BackendBChain::cluster_product_into(
    const std::vector<std::vector<Vector>>& vs,
    const std::vector<MatrixView>& out) {
  DQMC_CHECK(!vs.empty() && out.size() == vs.size());
  const std::vector<idx> items = resolve({}, vs.size());
  const std::size_t k = vs[0].size();
  DQMC_CHECK_MSG(k >= 1, "cluster_product needs at least one factor");
  for (const std::vector<Vector>& item : vs) {
    DQMC_CHECK_MSG(item.size() == k,
                   "all chain items must have the same factor count");
    for (const Vector& v : item) DQMC_CHECK(v.size() == n_);
  }
  for (const MatrixView& o : out) DQMC_CHECK(o.rows() == n_ && o.cols() == n_);
  enqueue_failpoint(backend_);

  for_entries(backend_, vs.size(), [&](std::size_t first, std::size_t cnt) {
    const std::vector<idx> sub(items.begin() + first,
                               items.begin() + first + cnt);
    // The V uploads are enqueued on the stream, so each one pipelines behind
    // the GEMM before it — and FIFO order makes reusing the per-item v_
    // workspace safe. `vs` stays alive until the download drains the
    // stream.
    const std::vector<VectorHandle*> v_mut = mut(v_, sub);
    const std::vector<const VectorHandle*> v_const = cref(v_, sub);
    const std::vector<MatrixHandle*> a_mut = mut(a_, sub);
    const std::vector<const MatrixHandle*> a_const = cref(a_, sub);
    std::vector<const double*> v_hosts(cnt);
    const auto upload_level = [&](std::size_t l) {
      for (std::size_t i = 0; i < cnt; ++i) {
        v_hosts[i] = vs[first + i][l].data();
      }
      backend_.upload_vectors_async(v_hosts, n_, v_mut);
    };

    if (structured()) {
      // A_i starts as the identity; each level applies the shared operator
      // over all items in place, then scales rows — no GEMM anywhere in the
      // chain. The first apply renders exactly the dense b() the factory
      // exposes (both are kinetic_apply on the identity), so this stays
      // bitwise equal to the factory's make_b / apply_b_left product.
      for (MatrixHandle* a : a_mut) backend_.copy(*ident_, *a);
      for (std::size_t l = 0; l < k; ++l) {
        backend_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kLeft,
                                       false, a_mut);
        upload_level(l);
        backend_.scale_rows_batched(v_const, a_const, a_mut);
      }
    } else {
      // A_i = diag(vs[i][0]) * B, then for l = 1..k-1: T_i <- B * A_i;
      // A_i <- diag(vs[i][l]) * T_i.
      const std::vector<const MatrixHandle*> shared_b{b_.get()};
      const std::vector<MatrixHandle*> t_mut = mut(t_, sub);
      const std::vector<const MatrixHandle*> t_const = cref(t_, sub);
      upload_level(0);
      backend_.scale_rows_batched(v_const, shared_b, a_mut);
      for (std::size_t l = 1; l < k; ++l) {
        backend_.gemm_batched(Trans::No, Trans::No, 1.0, shared_b, a_const,
                              0.0, t_mut);
        upload_level(l);
        backend_.scale_rows_batched(v_const, t_const, a_mut);
      }
    }

    backend_.download_batched(
        a_const, std::vector<MatrixView>(out.begin() + first,
                                         out.begin() + first + cnt));
  });
}

void BackendBChain::wrap(const std::vector<MatrixView>& g,
                         const std::vector<const Vector*>& v,
                         const std::vector<char>& host_unchanged,
                         std::vector<idx> items, bool reverse) {
  items = resolve(std::move(items), g.size());
  DQMC_CHECK(v.size() == g.size() && host_unchanged.size() == g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    DQMC_CHECK(g[i].rows() == n_ && g[i].cols() == n_);
    DQMC_CHECK(v[i]->size() == n_);
  }
  enqueue_failpoint(backend_);

  // Upload only the non-resident items, in one batched transaction: a
  // resident device copy still holds exactly what the previous wrap
  // downloaded into its host matrix.
  std::vector<ConstMatrixView> up_hosts;
  std::vector<MatrixHandle*> up_handles;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto item = static_cast<std::size_t>(items[i]);
    if (host_unchanged[i] && g_resident_[item]) {
      ++wrap_uploads_skipped_[item];
    } else {
      up_hosts.push_back(g[i]);
      up_handles.push_back(g_[item].get());
    }
  }
  if (!up_handles.empty()) backend_.upload_batched_async(up_hosts, up_handles);

  std::vector<const double*> v_hosts;
  v_hosts.reserve(v.size());
  for (const Vector* vi : v) v_hosts.push_back(vi->data());
  backend_.upload_vectors_async(v_hosts, n_, mut(v_, items));

  const std::vector<MatrixHandle*> g_mut = mut(g_, items);
  const std::vector<const MatrixHandle*> g_const = cref(g_, items);
  // Forward: B on the left, B^{-1} on the right, then the scaling; reverse:
  // the scaling, then B^{-1} on the left and B on the right.
  if (reverse) backend_.wrap_scale_batched(cref(v_, items), g_mut);
  if (structured()) {
    // Two structured applies over all items — the GEMM-free wrap.
    backend_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kLeft, reverse,
                                   g_mut);
    backend_.kinetic_apply_batched(*kinetic_, linalg::CbSide::kRight,
                                   !reverse, g_mut);
  } else {
    // T_i = B * G_i (shared A), G_i = T_i * B^{-1} (shared B); the reverse
    // composite swaps the two factors.
    const MatrixHandle* left = reverse ? binv_.get() : b_.get();
    const MatrixHandle* right = reverse ? b_.get() : binv_.get();
    backend_.gemm_batched(Trans::No, Trans::No, 1.0, {left}, g_const, 0.0,
                          mut(t_, items));
    backend_.gemm_batched(Trans::No, Trans::No, 1.0, cref(t_, items), {right},
                          0.0, g_mut);
  }
  if (!reverse) backend_.wrap_scale_batched(cref(v_, items), g_mut);
  backend_.download_batched(g_const, g);
  for (const idx i : items) g_resident_[static_cast<std::size_t>(i)] = 1;
}

double cluster_product_flops(idx n, idx k, double apply_flops) {
  const double nn = static_cast<double>(n);
  return (static_cast<double>(k) - 1.0) * apply_flops +
         static_cast<double>(k) * nn * nn;
}

double wrap_flops(idx n, double apply_flops) {
  const double nn = static_cast<double>(n);
  return 2.0 * apply_flops + 2.0 * nn * nn;
}

}  // namespace dqmc::backend
