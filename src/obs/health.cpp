#include "obs/health.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/hexio.h"
#include "obs/event_log.h"

namespace dqmc::obs {

namespace hx = dqmc::hexio;

Json RunningStat::json_value() const {
  Json j = Json::object();
  j.set("count", count);
  j.set("mean", mean());
  if (count > 0) {
    j.set("min", min);
    j.set("max", max);
  }
  return j;
}

HealthMonitor& HealthMonitor::global() {
  // Leaked so instrumented code may record during static destruction.
  static HealthMonitor* instance = new HealthMonitor();
  return *instance;
}

void HealthMonitor::set_thresholds(const HealthThresholds& t) {
  std::lock_guard lock(mutex_);
  thresholds_ = t;
}

HealthThresholds HealthMonitor::thresholds() const {
  std::lock_guard lock(mutex_);
  return thresholds_;
}

void HealthMonitor::violation(const char* what, double value) {
  // Called with mutex_ held; the event log has its own synchronization.
  ++state_.violations;
  DQMC_EVENT(EventKind::kHealth, what, "violation", value);
}

void HealthMonitor::record_wrap_drift(double drift) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  state_.wrap_drift.add(drift);
  if (drift > thresholds_.max_wrap_drift) {
    violation("health.wrap_drift_warn", drift);
  }
}

void HealthMonitor::record_sign(int sign) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  ++state_.sign_samples;
  state_.sign_sum += static_cast<double>(sign);
  // The running average is a property of the whole stream, not one sample:
  // warn once per crossing instead of on every subsequent configuration.
  if (state_.sign_samples >= thresholds_.min_sign_samples) {
    const double avg = state_.average_sign();
    if (avg < thresholds_.min_avg_sign) {
      if (!sign_warned_) violation("health.sign_warn", avg);
      sign_warned_ = true;
    } else {
      sign_warned_ = false;
    }
  }
}

HealthMonitor::Summary HealthMonitor::summary() const {
  std::lock_guard lock(mutex_);
  return state_;
}

std::uint64_t HealthMonitor::violations() const {
  std::lock_guard lock(mutex_);
  return state_.violations;
}

Json HealthMonitor::json_value() const {
  std::lock_guard lock(mutex_);
  Json j = Json::object();
  j.set("enabled", enabled());
  j.set("wrap_drift", state_.wrap_drift.json_value());
  j.set("average_sign", state_.average_sign());
  j.set("sign_samples", state_.sign_samples);
  j.set("violations", state_.violations);
  Json t = Json::object();
  t.set("max_wrap_drift", thresholds_.max_wrap_drift);
  t.set("min_avg_sign", thresholds_.min_avg_sign);
  t.set("min_sign_samples", thresholds_.min_sign_samples);
  j.set("thresholds", std::move(t));
  return j;
}

void HealthMonitor::reset() {
  std::lock_guard lock(mutex_);
  state_ = Summary{};
  sign_warned_ = false;
}

void HealthMonitor::save(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  hx::put_u64(out, state_.wrap_drift.count);
  hx::put_double(out, state_.wrap_drift.sum);
  hx::put_double(out, state_.wrap_drift.min);
  hx::put_double(out, state_.wrap_drift.max);
  hx::put_u64(out, state_.sign_samples);
  hx::put_double(out, state_.sign_sum);
  hx::put_u64(out, state_.violations);
}

void HealthMonitor::merge(std::istream& in) {
  Summary saved;
  saved.wrap_drift.count = hx::get_u64(in);
  saved.wrap_drift.sum = hx::get_double(in);
  saved.wrap_drift.min = hx::get_double(in);
  saved.wrap_drift.max = hx::get_double(in);
  saved.sign_samples = hx::get_u64(in);
  saved.sign_sum = hx::get_double(in);
  saved.violations = hx::get_u64(in);

  std::lock_guard lock(mutex_);
  RunningStat& drift = state_.wrap_drift;
  drift.count += saved.wrap_drift.count;
  drift.sum += saved.wrap_drift.sum;
  drift.min = std::min(drift.min, saved.wrap_drift.min);
  drift.max = std::max(drift.max, saved.wrap_drift.max);
  state_.sign_samples += saved.sign_samples;
  state_.sign_sum += saved.sign_sum;
  state_.violations += saved.violations;
}

}  // namespace dqmc::obs
