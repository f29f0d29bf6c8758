#include "parallel/task_runtime.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/event_log.h"
#include "parallel/topology.h"

namespace dqmc::par {

namespace detail {

/// Join state shared by a TaskGroup and its in-flight tasks.
struct GroupState {
  std::atomic<std::size_t> pending{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first failure, guarded by mutex

  void task_done() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task out: take the lock so a waiter between its predicate
      // check and its sleep cannot miss the notification.
      std::lock_guard lock(mutex);
      done_cv.notify_all();
    }
  }

  void capture(std::exception_ptr e) {
    std::lock_guard lock(mutex);
    if (!error) error = std::move(e);
  }
};

}  // namespace detail

namespace {

using detail::GroupState;

struct Task {
  std::function<void()> fn;
  std::shared_ptr<GroupState> group;
  int share = 1;  ///< threads the task runs with (topology.h)

  explicit operator bool() const { return static_cast<bool>(fn); }
};

/// One double-ended queue per lane. A mutex per deque keeps the runtime
/// portable and ThreadSanitizer-clean; tasks are coarse (GEMM tile chunks,
/// whole spin chains), so the lock is never the bottleneck.
struct Lane {
  std::mutex mutex;
  std::deque<Task> deque;
};

/// Hard cap on worker threads (so the lane table never reallocates while
/// other threads scan it). Far above any sane DQMC_THREADS setting.
constexpr int kMaxWorkers = 128;

/// Lane index of the current thread: 0 for external threads (they share the
/// submission lane), 1..workers for pool threads.
thread_local int t_lane = 0;

}  // namespace

struct TaskRuntime::Impl {
  // lanes_[0] is the shared submission lane of external threads;
  // lanes_[1 + i] belongs to worker i. Allocated once, never resized.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::mutex pool_mutex_;
  std::condition_variable work_cv_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> helped_{0};
  std::atomic<std::uint64_t> groups_{0};

  TaskRuntime* owner_ = nullptr;

  /// Pop from the back of the current lane (LIFO: freshest task, best cache
  /// locality) or steal from the front of another lane (oldest task, the
  /// classic work-stealing order).
  bool try_get(Task& out) {
    const int lanes = 1 + owner_->workers();
    const int self = t_lane < lanes ? t_lane : 0;
    {
      Lane& mine = *lanes_[static_cast<std::size_t>(self)];
      std::lock_guard lock(mine.mutex);
      if (!mine.deque.empty()) {
        out = std::move(mine.deque.back());
        mine.deque.pop_back();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    for (int off = 1; off < lanes; ++off) {
      Lane& victim = *lanes_[static_cast<std::size_t>((self + off) % lanes)];
      std::lock_guard lock(victim.mutex);
      if (!victim.deque.empty()) {
        out = std::move(victim.deque.front());
        victim.deque.pop_front();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        stolen_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void execute(Task& task) {
    obs::MetricsRegistry& reg = obs::metrics();
    const bool timed = reg.enabled();
    Stopwatch watch;
    try {
      detail::ShareScope share(task.share);
      task.fn();
    } catch (...) {
      task.group->capture(std::current_exception());
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (timed) reg.observe("runtime.task_us", watch.seconds() * 1e6);
    task.group->task_done();
    task.fn = nullptr;
    task.group.reset();
  }

  void worker_loop(int index) {
    t_lane = 1 + index;
    obs::event_log().set_current_thread_name("task-worker-" +
                                             std::to_string(index));
    for (;;) {
      Task task;
      if (try_get(task)) {
        execute(task);
        continue;
      }
      std::unique_lock lock(pool_mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_relaxed) > 0;
      });
      if (stopping_.load(std::memory_order_relaxed) &&
          queued_.load(std::memory_order_relaxed) == 0) {
        return;
      }
    }
  }

  /// Grow the pool so `target` workers are alive (clamped to kMaxWorkers).
  void ensure_workers(int target) {
    target = std::min(target, kMaxWorkers);
    if (owner_->workers() >= target) return;
    std::lock_guard lock(pool_mutex_);
    int alive = owner_->workers_alive_.load(std::memory_order_relaxed);
    while (alive < target) {
      const int index = alive;
      threads_.emplace_back([this, index] { worker_loop(index); });
      ++alive;
      // Release-publish so lane scans never index an unconstructed lane.
      owner_->workers_alive_.store(alive, std::memory_order_release);
    }
  }
};

TaskRuntime& TaskRuntime::global() {
  static TaskRuntime runtime;
  return runtime;
}

TaskRuntime::TaskRuntime() : impl_(std::make_unique<Impl>()) {
  impl_->owner_ = this;
  impl_->lanes_.reserve(1 + kMaxWorkers);
  for (int i = 0; i < 1 + kMaxWorkers; ++i) {
    impl_->lanes_.push_back(std::make_unique<Lane>());
  }
}

TaskRuntime::~TaskRuntime() {
  {
    // Same ordering as spawn(): a worker between its predicate check and
    // its sleep would otherwise miss this notify and never join.
    std::lock_guard lock(impl_->pool_mutex_);
    impl_->stopping_.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv_.notify_all();
  for (std::thread& t : impl_->threads_) t.join();
}

RuntimeStats TaskRuntime::stats() const {
  RuntimeStats s;
  s.tasks_spawned = impl_->spawned_.load(std::memory_order_relaxed);
  s.tasks_executed = impl_->executed_.load(std::memory_order_relaxed);
  s.tasks_stolen = impl_->stolen_.load(std::memory_order_relaxed);
  s.tasks_helped = impl_->helped_.load(std::memory_order_relaxed);
  s.groups = impl_->groups_.load(std::memory_order_relaxed);
  return s;
}

void TaskRuntime::spawn(std::function<void()> fn,
                        std::shared_ptr<detail::GroupState> g, int share) {
  impl_->spawned_.fetch_add(1, std::memory_order_relaxed);
  g->pending.fetch_add(1, std::memory_order_relaxed);

  const int spawner_share = num_threads();
  if (spawner_share <= 1) {
    // No thread to spare at this level: no pool, no deque round-trip — run
    // now, in spawn order, on the spawning thread.
    Task task{std::move(fn), std::move(g), share};
    impl_->execute(task);
    return;
  }
  impl_->ensure_workers(spawner_share - 1);

  const int lanes = 1 + workers();
  const int lane = t_lane < lanes ? t_lane : 0;
  {
    Lane& mine = *impl_->lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard lock(mine.mutex);
    mine.deque.push_back(Task{std::move(fn), std::move(g), share});
  }
  {
    // The increment must be ordered with the workers' predicate check under
    // pool_mutex_: without the lock a worker can evaluate queued_ == 0,
    // have this notify fire before it blocks, and sleep through the task.
    std::lock_guard lock(impl_->pool_mutex_);
    impl_->queued_.fetch_add(1, std::memory_order_release);
  }
  impl_->work_cv_.notify_one();
}

void TaskRuntime::wait(detail::GroupState& g) {
  while (g.pending.load(std::memory_order_acquire) > 0) {
    Task task;
    if (impl_->try_get(task)) {
      // Help-first scheduling: execute whatever is runnable (not only this
      // group's tasks) so a waiting thread is never idle while work exists
      // and recursive groups cannot starve each other.
      impl_->helped_.fetch_add(1, std::memory_order_relaxed);
      impl_->execute(task);
      continue;
    }
    std::unique_lock lock(g.mutex);
    g.done_cv.wait(lock, [this, &g] {
      return g.pending.load(std::memory_order_acquire) == 0 ||
             impl_->queued_.load(std::memory_order_relaxed) > 0;
    });
  }
  impl_->groups_.fetch_add(1, std::memory_order_relaxed);
}

TaskGroup::TaskGroup(int fanout)
    : state_(std::make_shared<detail::GroupState>()),
      fanout_(std::max(1, fanout)) {}

TaskGroup::~TaskGroup() {
  if (state_->pending.load(std::memory_order_acquire) > 0) {
    TaskRuntime::global().wait(*state_);
  }
  // Release the captured error here, on the owner's thread. A worker can
  // still hold the GroupState for an instant after its final task_done()
  // (task.group.reset() comes after), and if that release were the last
  // one it would run the exception's destructor concurrently with a catch
  // handler that is still reading the object — ordered only by refcount
  // atomics inside uninstrumented libstdc++, which TSan cannot see.
  std::exception_ptr err;
  {
    std::lock_guard lock(state_->mutex);
    err = std::move(state_->error);
  }
}

void TaskGroup::run(std::function<void()> fn) {
  DQMC_CHECK_MSG(static_cast<bool>(fn), "TaskGroup::run with empty function");
  TaskRuntime::global().spawn(std::move(fn), state_,
                              std::max(1, num_threads() / fanout_));
}

void TaskGroup::wait() {
  TaskRuntime& rt = TaskRuntime::global();
  obs::MetricsRegistry& reg = obs::metrics();
  const bool timed = reg.enabled();
  Stopwatch watch;
  rt.wait(*state_);
  if (timed) reg.observe("runtime.group_wait_us", watch.seconds() * 1e6);
  // Rethrow a copy of the stored pointer (the error stays sticky for later
  // waits); the stored reference itself is released in ~TaskGroup, on the
  // owner's thread — see the note there.
  std::exception_ptr err;
  {
    std::lock_guard lock(state_->mutex);
    err = state_->error;
  }
  if (err) std::rethrow_exception(std::move(err));
}

}  // namespace dqmc::par
