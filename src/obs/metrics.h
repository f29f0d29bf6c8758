// Metrics registry: named counters, gauges, and histograms with JSON
// export, shared by the DQMC engine, the gpusim device queue, and the CLI.
//
// The registry is disabled by default; recording helpers (count / set /
// observe) are no-ops while disabled so instrumented hot paths pay one
// relaxed atomic load. Metric objects returned by counter()/gauge()/
// histogram() have registry lifetime, so call sites may cache references.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace dqmc::obs {

/// Monotonically increasing event count (thread-safe).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (thread-safe).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution summary: count/sum/min/max plus geometric (decade) buckets
/// over the absolute value, prometheus-style cumulative on export.
class Histogram {
 public:
  /// Bucket upper bounds 10^kMinExp .. 10^kMaxExp plus an overflow bucket.
  static constexpr int kMinExp = -12;
  static constexpr int kMaxExp = 12;
  static constexpr int kBuckets = kMaxExp - kMinExp + 2;
  /// Sliding sample window behind quantile(): the decade buckets are far
  /// too coarse for p50/p95/p99, so the last kQuantileWindow raw samples
  /// are retained and order-selected on demand.
  static constexpr std::size_t kQuantileWindow = 256;

  void observe(double v);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double mean() const;  ///< 0 when empty

  /// Nearest-rank quantile (q in [0,1]) over the most recent
  /// kQuantileWindow samples; 0 when empty. q=0 is the window minimum,
  /// q=1 the window maximum.
  double quantile(double q) const;

  /// {"count","sum","mean","min","max","p50","p95","p99",
  ///  "buckets":[{"le","count"},...]}
  /// (only non-empty buckets; min/max/quantiles omitted when empty).
  Json json_value() const;
  void reset();

  /// Bit-exact state (hexio), the quantile window oldest first.
  void save(std::ostream& out) const;
  /// Fold a saved histogram in: counts, sums, extremes and buckets add, and
  /// its window samples follow this one's, so the newest kQuantileWindow
  /// samples of the two streams stay.
  void merge(std::istream& in);

 private:
  double quantile_locked(double q) const;  ///< caller holds mutex_
  void push_window_locked(double v);       ///< caller holds mutex_

  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::uint64_t buckets_[kBuckets] = {};
  std::vector<double> window_;     ///< ring of recent samples
  std::size_t window_next_ = 0;    ///< next ring slot once full
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the pipeline instrumentation reports to.
  static MetricsRegistry& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime. A name registers as exactly one kind; re-registering it as
  /// another kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Recording helpers: no-ops while the registry is disabled.
  void count(const std::string& name, std::uint64_t delta = 1) {
    if (enabled()) counter(name).add(delta);
  }
  void set(const std::string& name, double value) {
    if (enabled()) gauge(name).set(value);
  }
  void observe(const std::string& name, double value) {
    if (enabled()) histogram(name).observe(value);
  }

  /// Lookup without creation; nullptr when the name is not registered (or
  /// registered as a different kind).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} sorted by name.
  Json json_value() const;
  std::string json() const { return json_value().dump(); }

  /// Human-readable name/value table (counters and gauges one line each,
  /// histograms as count/mean/min/max).
  std::string report() const;

  /// Zero every metric; registrations are kept.
  void reset();

  /// Every registered metric, bit-exact (hexio).
  void save(std::ostream& out) const;
  /// Fold a saved registry in, registering its names as needed: counters
  /// add, a gauge takes the saved value, histograms merge. Applies whether
  /// or not the registry is enabled.
  void merge(std::istream& in);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace dqmc::obs
