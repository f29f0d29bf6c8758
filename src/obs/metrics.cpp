#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/hexio.h"

namespace dqmc::obs {

namespace hx = dqmc::hexio;

namespace {

/// Bucket index for |v|: decades 10^kMinExp..10^kMaxExp, then overflow.
int bucket_index(double v) {
  const double a = std::fabs(v);
  if (a <= std::pow(10.0, Histogram::kMinExp)) return 0;
  const int exp = static_cast<int>(std::ceil(std::log10(a)));
  if (exp > Histogram::kMaxExp) return Histogram::kBuckets - 1;
  return exp - Histogram::kMinExp;
}

}  // namespace

void Histogram::observe(double v) {
  if (!std::isfinite(v)) return;  // non-finite samples would poison sum/mean
  std::lock_guard lock(mutex_);
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++buckets_[bucket_index(v)];
  push_window_locked(v);
}

void Histogram::push_window_locked(double v) {
  if (window_.size() < kQuantileWindow) {
    window_.push_back(v);
  } else {
    window_[window_next_] = v;
    window_next_ = (window_next_ + 1) % kQuantileWindow;
  }
}

double Histogram::quantile(double q) const {
  std::lock_guard lock(mutex_);
  return quantile_locked(q);
}

double Histogram::quantile_locked(double q) const {
  if (window_.empty()) return 0.0;
  std::vector<double> samples = window_;
  std::sort(samples.begin(), samples.end());
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const std::size_t last = samples.size() - 1;
  std::size_t rank =
      static_cast<std::size_t>(clamped * static_cast<double>(samples.size()));
  if (rank > last) rank = last;
  return samples[rank];
}

std::uint64_t Histogram::count() const {
  std::lock_guard lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard lock(mutex_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard lock(mutex_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

Json Histogram::json_value() const {
  std::lock_guard lock(mutex_);
  Json j = Json::object();
  j.set("count", count_);
  j.set("sum", sum_);
  j.set("mean", count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0);
  if (count_ > 0) {
    j.set("min", min_);
    j.set("max", max_);
    j.set("p50", quantile_locked(0.50));
    j.set("p95", quantile_locked(0.95));
    j.set("p99", quantile_locked(0.99));
  }
  Json buckets = Json::array();
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    Json b = Json::object();
    if (i == kBuckets - 1) {
      b.set("le", "inf");
    } else {
      b.set("le", std::pow(10.0, kMinExp + i));
    }
    b.set("count", cumulative);
    buckets.push_back(std::move(b));
  }
  j.set("buckets", std::move(buckets));
  return j;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  for (auto& b : buckets_) b = 0;
  window_.clear();
  window_next_ = 0;
}

void Histogram::save(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  hx::put_u64(out, count_);
  hx::put_double(out, sum_);
  hx::put_double(out, min_);
  hx::put_double(out, max_);
  for (std::uint64_t b : buckets_) hx::put_u64(out, b);
  hx::put_u64(out, window_.size());
  for (std::size_t i = 0; i < window_.size(); ++i) {
    hx::put_double(out, window_[(window_next_ + i) % window_.size()]);
  }
}

void Histogram::merge(std::istream& in) {
  const std::uint64_t count = hx::get_u64(in);
  const double sum = hx::get_double(in);
  const double min = hx::get_double(in);
  const double max = hx::get_double(in);
  std::uint64_t buckets[kBuckets];
  for (std::uint64_t& b : buckets) b = hx::get_u64(in);
  const std::uint64_t samples = hx::get_u64(in);
  DQMC_CHECK_MSG(samples <= kQuantileWindow,
                 "histogram block holds more samples than its window");
  std::vector<double> window(static_cast<std::size_t>(samples));
  for (double& v : window) v = hx::get_double(in);

  std::lock_guard lock(mutex_);
  count_ += count;
  sum_ += sum;
  min_ = std::min(min_, min);
  max_ = std::max(max_, max);
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += buckets[i];
  for (double v : window) push_window_locked(v);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked so instrumented code may record during static destruction.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  DQMC_CHECK_MSG(gauges_.count(name) == 0 && histograms_.count(name) == 0,
                 "metric '" + name + "' already registered as another kind");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  DQMC_CHECK_MSG(counters_.count(name) == 0 && histograms_.count(name) == 0,
                 "metric '" + name + "' already registered as another kind");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  DQMC_CHECK_MSG(counters_.count(name) == 0 && gauges_.count(name) == 0,
                 "metric '" + name + "' already registered as another kind");
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

Json MetricsRegistry::json_value() const {
  std::lock_guard lock(mutex_);
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters.set(name, c->value());
  Json gauges = Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g->value());
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) histograms.set(name, h->json_value());
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

std::string MetricsRegistry::report() const {
  std::lock_guard lock(mutex_);
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%-32s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%-32s %20.6g\n", name.c_str(),
                  g->value());
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(line, sizeof line,
                  "%-32s count=%llu mean=%.6g min=%.6g max=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->mean(), h->count() > 0 ? h->min() : 0.0,
                  h->count() > 0 ? h->max() : 0.0);
    out += line;
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::save(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  hx::put_u64(out, counters_.size());
  for (const auto& [name, c] : counters_) {
    hx::put_block(out, name);
    hx::put_u64(out, c->value());
  }
  hx::put_u64(out, gauges_.size());
  for (const auto& [name, g] : gauges_) {
    hx::put_block(out, name);
    hx::put_double(out, g->value());
  }
  hx::put_u64(out, histograms_.size());
  for (const auto& [name, h] : histograms_) {
    hx::put_block(out, name);
    h->save(out);
  }
}

void MetricsRegistry::merge(std::istream& in) {
  // Find-or-create takes mutex_ itself, so the fold runs unlocked: each
  // metric is thread-safe on its own.
  for (std::uint64_t n = hx::get_u64(in); n > 0; --n) {
    const std::string name = hx::get_block(in);
    counter(name).add(hx::get_u64(in));
  }
  for (std::uint64_t n = hx::get_u64(in); n > 0; --n) {
    const std::string name = hx::get_block(in);
    gauge(name).set(hx::get_double(in));
  }
  for (std::uint64_t n = hx::get_u64(in); n > 0; --n) {
    const std::string name = hx::get_block(in);
    histogram(name).merge(in);
  }
}

}  // namespace dqmc::obs
