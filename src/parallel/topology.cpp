#include "parallel/topology.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/env.h"

namespace dqmc::par {

namespace {
std::atomic<int> g_override{0};
/// The calling thread's share; 0 marks a top-level thread (whole budget).
thread_local int t_share = 0;

/// DQMC_THREADS, else the hardware concurrency (min 1), resolved once per
/// process: a top-level thread asks for its budget at every parallel region,
/// and reading the environment and the CPU count costs microseconds.
int default_budget() {
  static const int resolved = [] {
    const long env = env_long("DQMC_THREADS", 0);
    if (env > 0) return static_cast<int>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
  }();
  return resolved;
}

int budget() {
  const int o = g_override.load(std::memory_order_relaxed);
  return o > 0 ? o : default_budget();
}
}  // namespace

int num_threads() { return t_share > 0 ? t_share : budget(); }

void set_num_threads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

void set_thread_serial(bool serial) { t_share = serial ? 1 : 0; }

namespace detail {

ShareScope::ShareScope(int share) : prev_(t_share) {
  t_share = std::max(1, share);
}

ShareScope::~ShareScope() { t_share = prev_; }

}  // namespace detail

}  // namespace dqmc::par
