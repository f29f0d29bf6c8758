#include "gpusim/stream.h"

#include "common/error.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/event_log.h"
#include "parallel/topology.h"

namespace dqmc::gpu {

StreamThread::StreamThread() : worker_([this] { run(); }) {}

StreamThread::~StreamThread() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void StreamThread::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    DQMC_CHECK_MSG(!stopping_, "submit() on a stopped StreamThread");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  // Live queue-depth gauge for the telemetry stream. The gauge pointer is
  // cached (registry references have registry lifetime) so the armed-path
  // cost stays one atomic store.
  if (obs::metrics().enabled()) {
    static obs::Gauge* depth_gauge = &obs::metrics().gauge("gpusim.queue_depth");
    depth_gauge->set(static_cast<double>(depth));
  }
  DQMC_EVENT(obs::EventKind::kEnqueue, "gpusim.stream", "",
             static_cast<double>(depth));
  cv_.notify_one();
}

void StreamThread::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  if (fault_pending_) {
    fault_pending_ = false;
    const std::uint64_t hit = fault_hit_;
    lock.unlock();
    throw fault::InjectedFault("gpusim.stream",
                               fault::FaultClass::kDeviceFault, hit);
  }
}

void StreamThread::run() {
  obs::event_log().set_current_thread_name("gpusim-stream");
  // The stream thread must never wait on the shared task runtime: a stolen
  // task can block in wait_idle() until THIS thread drains the queue, so a
  // nested parallel region here (threaded GEMM tiles) can close a deadlock
  // cycle through wait_idle(). Serial execution keeps the stream a pure
  // producer the rest of the runtime may safely wait on.
  par::set_thread_serial(true);
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_, drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    task();
    // Non-throwing poll: a fired "gpusim.stream" fail point becomes a
    // sticky pending fault that wait_idle() raises at the next sync.
    std::uint64_t hit = 0;
    bool fired = false;
#if !defined(DQMC_NO_FAILPOINTS)
    if (fault::failpoints().any_armed())
      fired = fault::failpoints().fire("gpusim.stream", &hit);
#endif
    lock.lock();
    if (fired && !fault_pending_) {
      fault_pending_ = true;
      fault_hit_ = hit;
    }
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace dqmc::gpu
