// Numerical-health monitoring for the DQMC pipeline.
//
// Tracks the two stability signals that matter at large beta:
//   * wrap drift    — ‖G_wrap − G_fresh‖_max at every stratified recompute:
//                     how far the wrapped/updated Green's function has
//                     drifted from the numerically clean one (the quantity
//                     behind Fig. 2 of the paper);
//   * average sign  — the sign-problem severity of the run.
// Each sample is checked against configurable thresholds; a violation
// increments the violation count and records one health event in the event
// log (a trace instant and a crash-dump entry).
//
// Disabled by default: the engine skips the O(N^2) drift difference (and
// everything else here) unless monitoring is on.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>

#include "obs/json.h"

namespace dqmc::obs {

struct HealthThresholds {
  /// Warn when ‖G_wrap − G_fresh‖_max exceeds this.
  double max_wrap_drift = 1e-6;
  /// Warn when the running average sign falls below this (after a minimum
  /// number of samples so early noise does not trigger).
  double min_avg_sign = 0.05;
  std::uint64_t min_sign_samples = 50;
};

/// count/sum/min/max of a sample stream.
struct RunningStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// {"count","mean","min","max"} (min/max omitted when empty).
  Json json_value() const;
};

class HealthMonitor {
 public:
  HealthMonitor() = default;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// The process-wide monitor the engine and graded accumulator report to.
  static HealthMonitor& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_thresholds(const HealthThresholds& t);
  HealthThresholds thresholds() const;

  /// One ‖G_wrap − G_fresh‖_max sample (per stratified recompute).
  void record_wrap_drift(double drift);
  /// One configuration sign (±1, per sweep).
  void record_sign(int sign);

  struct Summary {
    RunningStat wrap_drift;
    std::uint64_t sign_samples = 0;
    double sign_sum = 0.0;
    std::uint64_t violations = 0;

    double average_sign() const {
      return sign_samples > 0 ? sign_sum / static_cast<double>(sign_samples)
                              : 1.0;
    }
  };
  Summary summary() const;
  std::uint64_t violations() const;

  /// {"enabled","wrap_drift":{...},"average_sign",
  ///  "sign_samples","violations","thresholds":{...}}
  Json json_value() const;

  /// Drop all samples and violation counts; thresholds and enablement kept.
  void reset();

  /// The samples and violation count, bit-exact (hexio).
  void save(std::ostream& out) const;
  /// Fold saved samples in: drift stats, sign sums and violations add.
  /// Thresholds and enablement are kept, and no event is logged.
  void merge(std::istream& in);

 private:
  void violation(const char* what, double value);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  HealthThresholds thresholds_;
  Summary state_;
  bool sign_warned_ = false;
};

/// Shorthand for HealthMonitor::global().
inline HealthMonitor& health() { return HealthMonitor::global(); }

}  // namespace dqmc::obs
