// Event log: the one per-thread ring of timestamped events behind both the
// Chrome trace ("where did the time go") and the crash dump ("what were the
// last things the run did before it died").
//
// The ring holds three sorts of record on one clock:
//   - spans (ScopedPhase, TraceSpan): name, start and duration;
//   - trace-only instants (gpusim h2d/d2h transfers);
//   - forensic events: failpoint trips, supervisor recovery decisions,
//     backend enqueues, health violations, checkpoints, notes.
// trace_json() renders every held record (forensic events as thread-scoped
// instants); crash_dump_json() renders the forensic tail, at most
// kTailCapacity events per thread. Both stamp an event with the same ts_us.
//
// Two switches decide what is recorded:
//   - tracing records spans and instants (and forensic events, so the trace
//     shows them);
//   - arming records forensic events.
// With both off a DQMC_EVENT site costs one relaxed atomic load; a recorded
// event is one store into the calling thread's ring (no lock, no allocation
// after the thread's first event).
//
// Each thread owns a single-writer ring: it stores into slot
// (count % capacity) and publishes the new count with release order. The
// renderers read counts with acquire order and copy the tails, so a dump can
// be written from a fatal-signal or terminate handler without taking a lock
// a writer could hold. A write racing the dump can tear at most the one
// in-flight slot once the ring has wrapped.
//
// Span and instant names, categories and argument names must be string
// literals (or otherwise outlive the log); forensic site and detail strings
// are copied (truncated).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace dqmc::obs {

enum class EventKind : std::uint8_t {
  kNote,        ///< free-form marker (walker faults, driver milestones)
  kFailpoint,   ///< an armed fail point fired
  kRecovery,    ///< supervisor recovery decision (action in detail)
  kEnqueue,     ///< backend kernel/transfer enqueued
  kHealth,      ///< health monitor violation
  kCheckpoint,  ///< checkpoint saved
  kSpan,        ///< timed span (trace only): arg name in detail, value in a
  kInstant,     ///< trace-only instant: arg name in detail, value in a
};

const char* event_kind_name(EventKind kind);

/// Fixed-size record, safe to copy from a signal handler. It has no default
/// member initializers, so a ring's pages are touched only as events land.
struct Event {
  double ts_us;          ///< microseconds since the log's epoch
  double dur_us;         ///< span duration (kSpan only)
  double a;              ///< kind-specific payload (hit count, sweep, ...)
  double b;              ///< second payload (attempt, queue depth, ...)
  std::int32_t walker;   ///< chain id, -1 when not walker-scoped
  std::int32_t crowd;    ///< crowd id, -1 outside crowd runs
  const char* cat;       ///< trace category of a span or instant (literal)
  EventKind kind;
  char site[47];         ///< site or span name, truncated
  char detail[32];       ///< annotation (action, class) or arg name

  bool forensic() const { return kind < EventKind::kSpan; }
  /// Crash-dump form: {ts_us, kind, site, detail?, walker?, crowd?, a?, b?}.
  Json json_value() const;
};

/// Who was running when a dump was written: the dump's "context" (negative
/// fields are omitted).
struct DumpContext {
  std::int32_t walker = -1;
  std::int32_t crowd = -1;
  std::int64_t sweep = -1;
};

class EventLog {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kTailCapacity = 2048;     ///< per thread
  static constexpr std::size_t kTraceCapacity = 1 << 15;  ///< per thread

  EventLog();
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide log every instrumented site records into. Never
  /// destroyed.
  static EventLog& global();

  void set_tracing(bool on) { set_switch(kTracing, on); }
  void set_armed(bool on) { set_switch(kArmed, on); }
  bool tracing() const { return (switches() & kTracing) != 0; }
  bool armed() const { return (switches() & kArmed) != 0; }
  /// Whether forensic events are recorded (either switch is on).
  bool recording() const { return switches() != 0; }

  /// Ring capacity of a thread whose ring is allocated after this call (at
  /// its first event after construction or reset()). 0, the default, sizes
  /// it by the switches then: kTraceCapacity while tracing, kTailCapacity
  /// otherwise.
  void set_buffer_capacity(std::size_t events) {
    capacity_.store(events, std::memory_order_relaxed);
  }

  /// Microseconds from the epoch (construction or last reset()) to `t`:
  /// lets a caller stamp an event with a clock read it already made.
  double to_us(Clock::time_point t) const {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
                   .count() -
               epoch_ns_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  double now_us() const { return to_us(Clock::now()); }

  /// Record a span. No-op unless tracing.
  void span(const char* name, const char* cat, double ts_us, double dur_us,
            const char* arg = nullptr, double value = 0.0);
  /// Record a trace-only instant stamped now. No-op unless tracing.
  void instant(const char* name, const char* cat, const char* arg = nullptr,
               double value = 0.0);
  /// Record a forensic event stamped now. No-op unless recording().
  void record(EventKind kind, const char* site, const char* detail = "",
              double a = 0.0, double b = 0.0, std::int32_t walker = -1,
              std::int32_t crowd = -1);

  /// Label the calling thread in the trace (kept across reset()).
  void set_current_thread_name(const std::string& name);

  std::uint64_t recorded() const;  ///< events written since reset()
  std::uint64_t dropped() const;   ///< events overwritten by ring wrap
  /// Time-ordered copy of every held event.
  std::vector<Event> snapshot() const;

  /// Chrome-trace document ({"traceEvents": [...], "droppedEvents", ...}):
  /// one thread_name record per thread, then every held event by time.
  Json trace_json() const;
  /// Write trace_json() to `path`; throws dqmc::Error on I/O failure.
  void write_json(const std::string& path) const;

  /// Where write_crash_dump() lands. Empty disables file dumps
  /// (crash_dump_json() still works for in-process consumers).
  void set_dump_path(const std::string& path);
  std::string dump_path() const;

  /// Companion artifacts flushed with the dump: the trace (while tracing)
  /// and a metrics/health snapshot, so an abnormal exit keeps them.
  void set_export_paths(const std::string& trace_path,
                        const std::string& metrics_path);

  /// Attach a named JSON section rendered into every crash dump; higher
  /// layers contribute state without a dependency cycle (the fault registry
  /// registers "failpoints"). Re-registering a name replaces its provider.
  void register_section(const std::string& name, std::function<Json()> fn);

  /// Forensic document: {crash_dump_version, reason, context, recorded,
  /// dropped, events (forensic tail, time-ordered), metrics, health, +
  /// registered sections}.
  Json crash_dump_json(const std::string& reason,
                       const DumpContext& context = {}) const;

  /// Render and write the dump (and any export companions). Never throws;
  /// returns false when the path is empty or the write failed. Each call
  /// overwrites with a fresher tail.
  bool write_crash_dump(const std::string& reason,
                        const DumpContext& context = {}) noexcept;

  /// Install SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT/SIGTERM/SIGINT handlers
  /// and a std::terminate hook that flush the global log's dump, then
  /// re-raise/chain. Idempotent per process.
  void install_crash_handlers();

  /// Drop every event and restart the clock. Switches, thread names, paths
  /// and sections are kept. Call only while no thread records.
  void reset();

 private:
  static constexpr std::uint8_t kTracing = 1;
  static constexpr std::uint8_t kArmed = 2;

  struct ThreadBuffer;
  struct Tagged;

  std::uint8_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }
  void set_switch(std::uint8_t bit, bool on);
  ThreadBuffer& local_buffer();
  /// Store one event into the calling thread's ring, allocating the ring
  /// at its first event, and publish it to the renderers.
  void push(EventKind kind, const char* site, const char* detail,
            const char* cat, double ts_us, double dur_us, double a, double b,
            std::int32_t walker, std::int32_t crowd);
  /// Held events of every thread, time-ordered; forensic_only keeps at most
  /// kTailCapacity forensic events per thread.
  std::vector<Tagged> collect(bool forensic_only) const;

  std::atomic<std::uint8_t> switches_{0};
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::int64_t> epoch_ns_{0};
  const std::uint64_t id_;  ///< process-unique, for the thread-local cache

  mutable std::mutex registry_mutex_;  // guards buffers_, names, paths
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::string dump_path_;
  std::string trace_export_path_;
  std::string metrics_export_path_;
  std::vector<std::pair<std::string, std::function<Json()>>> sections_;
};

/// Shorthand for EventLog::global().
inline EventLog& event_log() { return EventLog::global(); }

/// RAII span over its lifetime, recorded when the log was tracing at
/// construction (zero work otherwise).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "dqmc")
      : TraceSpan(event_log(), name, cat) {}
  TraceSpan(EventLog& log, const char* name, const char* cat = "dqmc")
      : name_(name), cat_(cat) {
    if (log.tracing()) {
      log_ = &log;
      start_us_ = log.now_us();
    }
  }
  ~TraceSpan() {
    if (log_) {
      log_->span(name_, cat_, start_us_, log_->now_us() - start_us_,
                 arg_name_, arg_value_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach one numeric argument to the span (literal name).
  void arg(const char* name, double value) {
    arg_name_ = name;
    arg_value_ = value;
  }

 private:
  EventLog* log_ = nullptr;
  const char* name_;
  const char* cat_;
  double start_us_ = 0.0;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0.0;
};

}  // namespace dqmc::obs

/// Record a forensic event on the global log: one relaxed load while both
/// switches are off.
#define DQMC_EVENT(...)                                        \
  do {                                                         \
    ::dqmc::obs::EventLog& log_ = ::dqmc::obs::event_log();    \
    if (log_.recording()) log_.record(__VA_ARGS__);            \
  } while (false)
