#include "common/profiler.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/hexio.h"
#include "obs/event_log.h"

namespace dqmc {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kDelayedUpdate: return "Delayed rank-1 update";
    case Phase::kStratification: return "Stratification";
    case Phase::kClustering: return "Clustering";
    case Phase::kWrapping: return "Wrapping";
    case Phase::kMeasurement: return "Physical meas.";
    case Phase::kOther: return "Other";
    case Phase::kCount: break;
  }
  return "?";
}

void Profiler::begin(Phase p, Clock::time_point start) {
  stack_.push_back({p, start, 0.0});
}

void Profiler::end(Clock::time_point stop, std::uint64_t calls) {
  DQMC_CHECK_MSG(!stack_.empty(), "Profiler::end() without begin()");
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed =
      std::chrono::duration<double>(stop - frame.start).count();
  const int p = static_cast<int>(frame.phase);
  inclusive_[p] += elapsed;
  // Nested brackets already billed their (inclusive) time; what is left is
  // this phase's own work. Clamp against clock jitter on empty brackets.
  exclusive_[p] += std::max(0.0, elapsed - frame.child_seconds);
  calls_[p] += calls;
  if (!stack_.empty()) stack_.back().child_seconds += elapsed;
}

void Profiler::add(Phase p, double seconds) {
  exclusive_[static_cast<int>(p)] += seconds;
  inclusive_[static_cast<int>(p)] += seconds;
  calls_[static_cast<int>(p)] += 1;
}

void Profiler::reset() {
  exclusive_.fill(0.0);
  inclusive_.fill(0.0);
  calls_.fill(0);
  stack_.clear();
}

double Profiler::total_seconds() const {
  double t = 0.0;
  for (double s : exclusive_) t += s;
  return t;
}

double Profiler::percent(Phase p) const {
  const double total = total_seconds();
  return total > 0.0 ? 100.0 * seconds(p) / total : 0.0;
}

void Profiler::merge(const Profiler& other) {
  DQMC_CHECK_MSG(stack_.empty() && other.stack_.empty(),
                 "Profiler::merge with open phase brackets");
  for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
    exclusive_[i] += other.exclusive_[i];
    inclusive_[i] += other.inclusive_[i];
    calls_[i] += other.calls_[i];
  }
}

void Profiler::save(std::ostream& out) const {
  DQMC_CHECK_MSG(stack_.empty(), "Profiler::save with open phase brackets");
  for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
    hexio::put_double(out, exclusive_[i]);
    hexio::put_double(out, inclusive_[i]);
    hexio::put_u64(out, calls_[i]);
  }
}

void Profiler::load(std::istream& in) {
  DQMC_CHECK_MSG(stack_.empty(), "Profiler::load with open phase brackets");
  for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
    exclusive_[i] = hexio::get_double(in);
    inclusive_[i] = hexio::get_double(in);
    calls_[i] = hexio::get_u64(in);
  }
}

std::string Profiler::report() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %12s %8s %12s %10s\n", "phase",
                "seconds", "share", "inclusive", "calls");
  out += line;
  for (int i = 0; i < static_cast<int>(Phase::kCount); ++i) {
    const auto p = static_cast<Phase>(i);
    std::snprintf(line, sizeof line, "%-24s %12.3f %7.1f%% %12.3f %10llu\n",
                  phase_name(p), seconds(p), percent(p), inclusive_seconds(p),
                  static_cast<unsigned long long>(calls(p)));
    out += line;
  }
  return out;
}

double ScopedPhase::close() {
  if (seconds_ >= 0.0) return seconds_;
  const Profiler::Clock::time_point stop = Profiler::Clock::now();
  seconds_ = std::chrono::duration<double>(stop - start_).count();
  if (prof_ == nullptr) return seconds_;
  prof_->end(stop, calls_);
  obs::EventLog& log = obs::event_log();
  if (log.tracing()) {
    log.span(phase_name(phase_), "phase", log.to_us(start_), seconds_ * 1e6,
             arg_name_, arg_value_);
  }
  return seconds_;
}

}  // namespace dqmc
