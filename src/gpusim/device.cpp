#include "gpusim/device.h"

#include <algorithm>
#include <cstring>

#include "linalg/diag.h"
#include "obs/metrics.h"
#include "obs/event_log.h"

namespace dqmc::gpu {

Device::Device(DeviceSpec spec) : spec_(spec) {}

Device::~Device() {
  // Drain outstanding work before tearing down storage the tasks reference.
  // A pending injected stream fault must not escape a destructor; anyone
  // who cares synchronized (and observed it) before letting the Device die.
  try {
    stream_.wait_idle();
  } catch (...) {
  }
}

DeviceMatrix Device::alloc_matrix(idx rows, idx cols) {
  DQMC_CHECK(rows >= 0 && cols >= 0);
  return DeviceMatrix(rows, cols);
}

DeviceVector Device::alloc_vector(idx n) {
  DQMC_CHECK(n >= 0);
  return DeviceVector(n);
}

double DeviceKinetic::bytes() const {
  if (const auto* cb = std::get_if<linalg::CbOperator>(&op_)) {
    return 32.0 * static_cast<double>(cb->num_bonds());
  }
  const auto& kron = std::get<linalg::KronOperator>(op_);
  double elems = 0.0;
  for (int d = 0; d < 3; ++d) {
    elems += 2.0 * static_cast<double>(kron.extent(d) * kron.extent(d));
  }
  return 8.0 * elems;
}

DeviceKinetic Device::alloc_kinetic(const linalg::KineticFactor& op) {
  linalg::kinetic_validate(op);
  DeviceKinetic k(op);
  // The operator crosses PCIe once and stays resident for the run — the
  // structured counterpart of uploading the dense e^{-dtau K}.
  account_transfer(k.bytes(), /*h2d=*/true);
  return k;
}

void Device::submit_traced(const char* kernel, std::function<void()> body) {
  if (obs::event_log().tracing()) {
    stream_.submit([kernel, body = std::move(body)] {
      obs::TraceSpan span(kernel, "gpusim");
      body();
    });
  } else {
    stream_.submit(std::move(body));
  }
}

void Device::bill_compute(double modeled_seconds, std::uint64_t launches) {
  const double now = clock_.seconds();
  std::lock_guard lock(stats_mutex_);
  stats_.compute_seconds += modeled_seconds;
  stats_.kernel_launches += launches;
  device_free_at_ = std::max(device_free_at_, now) + modeled_seconds;
}

void Device::enqueue_compute(const char* kernel, double modeled_seconds,
                             std::function<void()> body) {
  bill_compute(modeled_seconds, 1);
  obs::MetricsRegistry& reg = obs::metrics();
  if (reg.enabled()) {
    reg.count("gpusim.kernel_launches");
    reg.observe("gpusim.kernel_modeled_ms", modeled_seconds * 1e3);
  }
  submit_traced(kernel, std::move(body));
}

void Device::drain() {
  stream_.wait_idle();
  const double now = clock_.seconds();
  std::lock_guard lock(stats_mutex_);
  if (device_free_at_ > now) {
    stats_.exposed_wait_seconds += device_free_at_ - now;
  }
  // The host and device timelines are level again; re-anchor so a second
  // drain right after this one observes no stall.
  device_free_at_ = now;
}

void Device::account_transfer(double bytes, bool h2d) {
  {
    std::lock_guard lock(stats_mutex_);
    stats_.transfer_seconds += spec_.transfer_seconds(bytes);
    stats_.transfers += 1;
    (h2d ? stats_.bytes_h2d : stats_.bytes_d2h) += bytes;
  }
  obs::MetricsRegistry& reg = obs::metrics();
  if (reg.enabled()) {
    reg.count("gpusim.transfers");
    reg.count(h2d ? "gpusim.bytes_h2d" : "gpusim.bytes_d2h",
              static_cast<std::uint64_t>(bytes));
  }
  obs::event_log().instant(h2d ? "h2d" : "d2h", "gpusim", "bytes", bytes);
}

void Device::set_matrix(ConstMatrixView host, DeviceMatrix& dev) {
  DQMC_CHECK(host.rows() == dev.rows() && host.cols() == dev.cols());
  account_transfer(dev.bytes(), /*h2d=*/true);
  // Copy on the calling thread (cublasSetMatrix is host-synchronous),
  // but only after previously enqueued device work that may read the
  // destination has drained.
  drain();
  linalg::copy(host, dev.storage_);
}

void Device::get_matrix(const DeviceMatrix& dev, MatrixView host) {
  DQMC_CHECK(host.rows() == dev.rows() && host.cols() == dev.cols());
  account_transfer(dev.bytes(), /*h2d=*/false);
  drain();
  linalg::copy(dev.storage_, host);
}

void Device::set_vector(const double* host, idx n, DeviceVector& dev) {
  DQMC_CHECK(n == dev.size());
  account_transfer(dev.bytes(), /*h2d=*/true);
  drain();
  std::memcpy(dev.storage_.data(), host,
              sizeof(double) * static_cast<std::size_t>(n));
}

void Device::set_matrix_async(ConstMatrixView host, DeviceMatrix& dev) {
  DQMC_CHECK(host.rows() == dev.rows() && host.cols() == dev.cols());
  account_transfer(dev.bytes(), /*h2d=*/true);
  submit_traced("set_matrix_async",
                [host, &dev] { linalg::copy(host, dev.storage_); });
}

void Device::set_vector_async(const double* host, idx n, DeviceVector& dev) {
  DQMC_CHECK(n == dev.size());
  account_transfer(dev.bytes(), /*h2d=*/true);
  submit_traced("set_vector_async", [host, n, &dev] {
    std::memcpy(dev.storage_.data(), host,
                sizeof(double) * static_cast<std::size_t>(n));
  });
}

void Device::copy(const DeviceMatrix& src, DeviceMatrix& dst) {
  DQMC_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const double seconds = spec_.fused_kernel_seconds(2.0 * src.bytes());
  enqueue_compute("copy", seconds, [&src, &dst] {
    linalg::copy(src.storage_, dst.storage_);
  });
}

void Device::gemm(Trans transa, Trans transb, double alpha,
                  const DeviceMatrix& a, const DeviceMatrix& b, double beta,
                  DeviceMatrix& c) {
  const idx m = transa == Trans::Yes ? a.cols() : a.rows();
  const idx k = transa == Trans::Yes ? a.rows() : a.cols();
  const idx n = transb == Trans::Yes ? b.rows() : b.cols();
  const double seconds = spec_.gemm_seconds(m, n, k);
  enqueue_compute("gemm", seconds, [=, &a, &b, &c] {
    linalg::gemm(transa, transb, alpha, a.storage_, b.storage_, beta,
                 c.storage_);
  });
}

void Device::scale_rows_rowwise(const DeviceVector& v, const DeviceMatrix& src,
                                DeviceMatrix& dst) {
  DQMC_CHECK(v.size() == src.rows());
  DQMC_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  const double seconds = spec_.rowwise_scal_seconds(src.rows(), src.cols());
  // One accounting entry, rows() modeled launches.
  bill_compute(seconds, static_cast<std::uint64_t>(src.rows()));
  obs::metrics().count("gpusim.kernel_launches",
                       static_cast<std::uint64_t>(src.rows()));
  submit_traced("scale_rows_rowwise", [&v, &src, &dst] {
    linalg::scale_rows_into(v.storage_.data(), src.storage_, dst.storage_);
  });
}

void Device::scale_cols_rowwise(const DeviceVector& v, const DeviceMatrix& src,
                                DeviceMatrix& dst) {
  DQMC_CHECK(v.size() == src.cols());
  DQMC_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols());
  // cols() launches, each streaming one contiguous (coalesced) column.
  const double per_col_bytes = 2.0 * static_cast<double>(src.rows()) * sizeof(double);
  const double seconds =
      static_cast<double>(src.cols()) *
      (spec_.kernel_launch_s + per_col_bytes / (spec_.mem_bandwidth_gbs * 1e9));
  bill_compute(seconds, static_cast<std::uint64_t>(src.cols()));
  obs::metrics().count("gpusim.kernel_launches",
                       static_cast<std::uint64_t>(src.cols()));
  submit_traced("scale_cols_rowwise", [&v, &src, &dst] {
    if (&src != &dst) linalg::copy(src.storage_, dst.storage_);
    linalg::scale_cols(v.storage_.data(), dst.storage_);
  });
}

void Device::bill_kinetic(const DeviceKinetic& k, idx cols, idx batch) {
  double seconds = 0.0;
  std::uint64_t launches = 0;
  if (const auto* cb = std::get_if<linalg::CbOperator>(&k.op_)) {
    const bool scaled = cb->diag_scale != 1.0;
    seconds = spec_.cb_apply_batched_seconds(cb->n, cb->num_bonds(),
                                             cb->num_groups(), cols, scaled,
                                             batch);
    launches = static_cast<std::uint64_t>(cb->num_groups()) + (scaled ? 1 : 0);
  } else {
    const auto& kron = std::get<linalg::KronOperator>(k.op_);
    idx extents = 0;
    for (int d = 0; d < 3; ++d) {
      if (kron.extent(d) > 1) {
        extents += kron.extent(d);
        ++launches;
      }
    }
    seconds = spec_.kron_apply_seconds(kron.n(), cols, extents,
                                       static_cast<idx>(launches), batch);
  }
  // One launch per bond group or mode: bill them all, but keep a single
  // accounting entry like scale_rows_rowwise does.
  bill_compute(seconds, launches);
  obs::MetricsRegistry& reg = obs::metrics();
  if (reg.enabled()) {
    reg.count("gpusim.kernel_launches", launches);
    reg.observe("gpusim.kernel_modeled_ms", seconds * 1e3);
  }
}

void Device::gemm_batched(Trans transa, Trans transb, double alpha,
                          std::vector<const DeviceMatrix*> a,
                          std::vector<const DeviceMatrix*> b, double beta,
                          std::vector<DeviceMatrix*> c) {
  const idx count = static_cast<idx>(c.size());
  DQMC_CHECK(count >= 1);
  DQMC_CHECK(a.size() == c.size() || a.size() == 1);
  DQMC_CHECK(b.size() == c.size() || b.size() == 1);
  const idx m = transa == Trans::Yes ? a[0]->cols() : a[0]->rows();
  const idx k = transa == Trans::Yes ? a[0]->rows() : a[0]->cols();
  const idx n = transb == Trans::Yes ? b[0]->rows() : b[0]->cols();
  const double seconds = spec_.gemm_batched_seconds(m, n, k, count);
  enqueue_compute(
      "gemm_batched", seconds,
      [=, a = std::move(a), b = std::move(b), c = std::move(c)] {
        std::vector<linalg::ConstMatrixView> av, bv;
        std::vector<linalg::MatrixView> cv;
        av.reserve(a.size());
        bv.reserve(b.size());
        cv.reserve(c.size());
        for (const DeviceMatrix* ai : a) av.push_back(ai->storage_);
        for (const DeviceMatrix* bi : b) bv.push_back(bi->storage_);
        for (DeviceMatrix* ci : c) cv.push_back(ci->storage_);
        linalg::gemm_batched(transa, transb, alpha, av, bv, beta, cv);
      });
}

void Device::scale_rows_kernel_batched(std::vector<const DeviceVector*> v,
                                       std::vector<const DeviceMatrix*> src,
                                       std::vector<DeviceMatrix*> dst) {
  const idx count = static_cast<idx>(dst.size());
  DQMC_CHECK(count >= 1);
  DQMC_CHECK(v.size() == dst.size());
  DQMC_CHECK(src.size() == dst.size() || src.size() == 1);
  double bytes = 0.0;
  for (idx i = 0; i < count; ++i) {
    const DeviceMatrix& s = src.size() == 1 ? *src[0] : *src[i];
    DQMC_CHECK(v[i]->size() == s.rows());
    DQMC_CHECK(s.rows() == dst[i]->rows() && s.cols() == dst[i]->cols());
    bytes += 2.0 * dst[i]->bytes();
  }
  const double seconds = spec_.fused_kernel_seconds(bytes);
  enqueue_compute(
      "scale_rows_kernel_batched", seconds,
      [v = std::move(v), src = std::move(src), dst = std::move(dst)] {
        for (std::size_t i = 0; i < dst.size(); ++i) {
          const DeviceMatrix& s = src.size() == 1 ? *src[0] : *src[i];
          linalg::scale_rows_into(v[i]->storage_.data(), s.storage_,
                                  dst[i]->storage_);
        }
      });
}

void Device::wrap_scale_kernel_batched(std::vector<const DeviceVector*> v,
                                       std::vector<DeviceMatrix*> g) {
  const idx count = static_cast<idx>(g.size());
  DQMC_CHECK(count >= 1 && v.size() == g.size());
  double bytes = 0.0;
  for (idx i = 0; i < count; ++i) {
    DQMC_CHECK(v[i]->size() == g[i]->rows() && g[i]->rows() == g[i]->cols());
    bytes += 2.0 * g[i]->bytes();
  }
  const double seconds = spec_.fused_kernel_seconds(bytes);
  enqueue_compute("wrap_scale_kernel_batched", seconds,
                  [v = std::move(v), g = std::move(g)] {
                    for (std::size_t i = 0; i < g.size(); ++i) {
                      linalg::scale_rows_cols_inv(v[i]->storage_.data(),
                                                  v[i]->storage_.data(),
                                                  g[i]->storage_);
                    }
                  });
}

void Device::kinetic_apply_kernel_batched(const DeviceKinetic& k,
                                          linalg::CbSide side, bool inverse,
                                          std::vector<DeviceMatrix*> x) {
  const idx count = static_cast<idx>(x.size());
  DQMC_CHECK(count >= 1);
  for (const DeviceMatrix* xi : x) {
    DQMC_CHECK(side == linalg::CbSide::kLeft ? xi->rows() == k.n()
                                             : xi->cols() == k.n());
    DQMC_CHECK(xi->rows() == x[0]->rows() && xi->cols() == x[0]->cols());
  }
  bill_kinetic(k, side == linalg::CbSide::kLeft ? x[0]->cols() : x[0]->rows(),
               count);
  submit_traced("kinetic_apply_kernel_batched",
                [&k, side, inverse, x = std::move(x)] {
                  // Items replay the exact single-item kernel in sequence,
                  // so per-item bits cannot depend on the batching.
                  for (DeviceMatrix* xi : x) {
                    linalg::kinetic_apply(k.op_, side, inverse, xi->storage_);
                  }
                });
}

void Device::set_matrices_async(std::vector<ConstMatrixView> hosts,
                                std::vector<DeviceMatrix*> devs) {
  DQMC_CHECK(!devs.empty() && hosts.size() == devs.size());
  double bytes = 0.0;
  for (std::size_t i = 0; i < devs.size(); ++i) {
    DQMC_CHECK(hosts[i].rows() == devs[i]->rows() &&
               hosts[i].cols() == devs[i]->cols());
    bytes += devs[i]->bytes();
  }
  account_transfer(bytes, /*h2d=*/true);
  submit_traced("set_matrices_async",
                [hosts = std::move(hosts), devs = std::move(devs)] {
                  for (std::size_t i = 0; i < devs.size(); ++i) {
                    linalg::copy(hosts[i], devs[i]->storage_);
                  }
                });
}

void Device::set_vectors_async(std::vector<const double*> hosts, idx n,
                               std::vector<DeviceVector*> devs) {
  DQMC_CHECK(!devs.empty() && hosts.size() == devs.size());
  double bytes = 0.0;
  for (DeviceVector* dev : devs) {
    DQMC_CHECK(dev->size() == n);
    bytes += dev->bytes();
  }
  account_transfer(bytes, /*h2d=*/true);
  submit_traced("set_vectors_async",
                [hosts = std::move(hosts), devs = std::move(devs), n] {
                  for (std::size_t i = 0; i < devs.size(); ++i) {
                    std::memcpy(devs[i]->storage_.data(), hosts[i],
                                sizeof(double) * static_cast<std::size_t>(n));
                  }
                });
}

void Device::get_matrices(std::vector<const DeviceMatrix*> devs,
                          std::vector<MatrixView> hosts) {
  DQMC_CHECK(!devs.empty() && hosts.size() == devs.size());
  double bytes = 0.0;
  for (std::size_t i = 0; i < devs.size(); ++i) {
    DQMC_CHECK(hosts[i].rows() == devs[i]->rows() &&
               hosts[i].cols() == devs[i]->cols());
    bytes += devs[i]->bytes();
  }
  account_transfer(bytes, /*h2d=*/false);
  drain();
  for (std::size_t i = 0; i < devs.size(); ++i) {
    linalg::copy(devs[i]->storage_, hosts[i]);
  }
}

void Device::synchronize() {
  drain();
  std::lock_guard lock(stats_mutex_);
  stats_.synchronizations += 1;
}

DeviceStats Device::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void Device::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = DeviceStats{};
}

}  // namespace dqmc::gpu
