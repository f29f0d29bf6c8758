// Thread-count policy for the whole library.
//
// The paper's multicore results depend on using all cores of the two-socket
// Westmere node; here the thread budget defaults to the hardware concurrency
// and can be overridden globally (DQMC_THREADS env var or set_num_threads),
// which the bench harness uses for thread-scaling sweeps.
//
// The budget is split across nesting levels. Every thread runs with a SHARE
// of it: a top-level thread owns the whole budget, and each task the task
// runtime executes runs with the share its TaskGroup handed down (see
// task_runtime.h). A parallel region entered from a thread uses at most that
// thread's share, so a GEMM inside one of two concurrent spin tasks at a
// budget of 2 runs serially instead of forking onto threads that are already
// busy with the other spin — the paper's one-core-per-unit-of-work layout,
// with loop parallelism only where a level still has threads to spare.
#pragma once

namespace dqmc::par {

/// Threads available to parallel regions entered from the calling thread:
/// the whole budget on a top-level thread, the thread's share inside a
/// runtime task or under set_thread_serial. The budget resolves as
/// set_num_threads() override > DQMC_THREADS env var >
/// std::thread::hardware_concurrency() (min 1); the last two are read once,
/// at the first call.
int num_threads();

/// Override the budget for subsequent parallel regions (0 = reset to the
/// default policy). The task runtime grows its worker pool lazily the next
/// time a parallel region runs under the new budget.
void set_num_threads(int n);

/// Give the current thread a share of 1 (or, with false, make it a top-level
/// thread again): every parallel region entered from it runs inline, and it
/// never spawns into the shared task runtime.
///
/// The gpusim stream thread needs this. A runtime task may legitimately
/// block in Device wait_idle() until the stream drains; if the stream
/// thread itself waited on the runtime (nested parallel GEMM tiles), the
/// help-first scheduler could hand it exactly such a task and the stream
/// would wait on itself — a deadlock cycle through wait_idle(). Bitwise
/// safe: every parallel kernel partitions disjoint writes and keeps the
/// per-element arithmetic independent of the worker count.
void set_thread_serial(bool serial);

namespace detail {
/// Scoped share: the enclosed code runs with num_threads() == share (>= 1),
/// and the previous share is restored on exit. The task runtime wraps every
/// task it executes in one.
class ShareScope {
 public:
  explicit ShareScope(int share);
  ~ShareScope();
  ShareScope(const ShareScope&) = delete;
  ShareScope& operator=(const ShareScope&) = delete;

 private:
  int prev_;
};
}  // namespace detail

}  // namespace dqmc::par
