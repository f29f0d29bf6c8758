#include "fault/failpoint.h"

#include "common/env.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace dqmc::fault {

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kDeviceFault: return "device";
    case FaultClass::kIoError: return "io";
    case FaultClass::kNumericalFault: return "numerical";
    case FaultClass::kHealthTrip: return "health";
  }
  return "unknown";
}

FaultClass fault_class_for_site(const std::string& site) {
  const auto has_prefix = [&site](const char* p) {
    return site.rfind(p, 0) == 0;
  };
  if (has_prefix("checkpoint.") || has_prefix("fleet.io"))
    return FaultClass::kIoError;
  if (has_prefix("graded.") || has_prefix("strat."))
    return FaultClass::kNumericalFault;
  if (has_prefix("supervisor.") || has_prefix("health."))
    return FaultClass::kHealthTrip;
  return FaultClass::kDeviceFault;
}

InjectedFault::InjectedFault(std::string site, FaultClass cls,
                             std::uint64_t hit)
    : Error("injected " + std::string(fault_class_name(cls)) +
            " fault at fail point '" + site + "' (hit " +
            std::to_string(hit) + ")"),
      site_(std::move(site)),
      class_(cls),
      hit_(hit) {}

FailPointRegistry& FailPointRegistry::global() {
  static FailPointRegistry* registry = [] {
    auto* r = new FailPointRegistry();
    if (const auto spec = env_string("DQMC_FAILPOINTS")) r->arm_spec(*spec);
    // Crash dumps carry the registry state; registering here (first use)
    // keeps obs -> fault dependency-free while every run that touches a
    // fail point gets the section.
    obs::event_log().register_section("failpoints", [r] {
      obs::Json sites = obs::Json::object();
      for (const auto& [site, st] : r->sites()) {
        sites.set(site, obs::Json::object()
                            .set("hits", st.hits)
                            .set("trigger_at", st.trigger_at)
                            .set("fired", st.fired)
                            .set("armed", st.armed));
      }
      return obs::Json::object()
          .set("total_fired", r->total_fired())
          .set("sites", std::move(sites));
    });
    return r;
  }();
  return *registry;
}

void FailPointRegistry::arm(const std::string& site, std::uint64_t nth,
                            std::uint64_t count) {
  DQMC_CHECK_INPUT(!site.empty(), "fail-point site name must not be empty");
  DQMC_CHECK_INPUT(nth >= 1, "fail-point trigger hit is 1-based");
  DQMC_CHECK_INPUT(count >= 1, "fail-point fire count must be >= 1");
  std::lock_guard lock(mutex_);
  FailPointState& st = sites_[site];
  if (!st.armed) armed_sites_.fetch_add(1, std::memory_order_relaxed);
  st = FailPointState{};
  st.trigger_at = nth;
  st.fire_count = count;
  st.armed = true;
}

void FailPointRegistry::arm_spec(const std::string& spec) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding whitespace.
    const auto first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = entry.find_last_not_of(" \t");
    entry = entry.substr(first, last - first + 1);

    const auto colon = entry.find(':');
    DQMC_CHECK_INPUT(colon != std::string::npos && colon > 0,
                     "fail-point spec entry is not 'site:N': '" + entry + "'");
    const std::string site = entry.substr(0, colon);
    std::string rest = entry.substr(colon + 1);
    std::uint64_t count = 1;
    if (!rest.empty() && rest.back() == '+') {
      count = kPersistent;
      rest.pop_back();
    } else if (const auto colon2 = rest.find(':');
               colon2 != std::string::npos) {
      const std::string count_str = rest.substr(colon2 + 1);
      rest = rest.substr(0, colon2);
      try {
        count = std::stoull(count_str);
      } catch (const std::exception&) {
        throw InvalidArgument("fail-point spec count is not a number: '" +
                              entry + "'");
      }
    }
    std::uint64_t nth = 0;
    try {
      nth = std::stoull(rest);
    } catch (const std::exception&) {
      throw InvalidArgument("fail-point spec hit is not a number: '" + entry +
                            "'");
    }
    arm(site, nth, count);
  }
}

void FailPointRegistry::disarm(const std::string& site) {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_sites_.fetch_sub(1, std::memory_order_relaxed);
}

void FailPointRegistry::disarm_all() {
  std::lock_guard lock(mutex_);
  int armed = 0;
  for (const auto& [site, st] : sites_) {
    if (st.armed) ++armed;
  }
  sites_.clear();
  total_fired_ = 0;
  armed_sites_.fetch_sub(armed, std::memory_order_relaxed);
}

bool FailPointRegistry::fire(const char* site, std::uint64_t* hit_out) {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return false;  // never armed: no bookkeeping
  FailPointState& st = it->second;
  ++st.hits;
  if (!st.armed || st.hits < st.trigger_at) return false;
  ++st.fired;
  ++total_fired_;
  if (st.fire_count != kPersistent && st.fired >= st.fire_count) {
    // Exhausted: restore the zero-overhead fast path.
    st.armed = false;
    armed_sites_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (hit_out) *hit_out = st.hits;
  obs::metrics().count(std::string("fault.fired.") + site);
  DQMC_EVENT(obs::EventKind::kFailpoint, site,
             fault_class_name(fault_class_for_site(site)),
             static_cast<double>(st.hits), static_cast<double>(st.fired));
  return true;
}

void FailPointRegistry::hit(const char* site) {
  std::uint64_t hitno = 0;
  if (fire(site, &hitno)) {
    throw InjectedFault(site, fault_class_for_site(site), hitno);
  }
}

FailPointState FailPointRegistry::state(const std::string& site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  return it != sites_.end() ? it->second : FailPointState{};
}

std::vector<std::pair<std::string, FailPointState>>
FailPointRegistry::sites() const {
  std::lock_guard lock(mutex_);
  return {sites_.begin(), sites_.end()};
}

std::uint64_t FailPointRegistry::total_fired() const {
  std::lock_guard lock(mutex_);
  return total_fired_;
}

}  // namespace dqmc::fault
