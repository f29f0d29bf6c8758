#include "obs/event_log.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

#include "obs/health.h"
#include "obs/metrics.h"

namespace dqmc::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             EventLog::Clock::now().time_since_epoch())
      .count();
}

std::uint64_t next_log_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Truncating copy into a fixed inline field (always NUL-terminated).
template <std::size_t N>
void copy_field(char (&dst)[N], const char* src) {
  std::size_t i = 0;
  for (; src != nullptr && i + 1 < N && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

/// A field as a string, bounded even if a racing write tore its NUL.
template <std::size_t N>
std::string field(const char (&src)[N]) {
  return std::string(src, strnlen(src, N));
}

/// The payload fields both renderings share; defaults are omitted.
void set_payload(Json& j, const Event& e) {
  if (e.detail[0] != '\0') j.set("detail", field(e.detail));
  if (e.walker >= 0) j.set("walker", e.walker);
  if (e.crowd >= 0) j.set("crowd", e.crowd);
  if (e.a != 0.0) j.set("a", e.a);
  if (e.b != 0.0) j.set("b", e.b);
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kNote: return "note";
    case EventKind::kFailpoint: return "failpoint";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kHealth: return "health";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kSpan: return "span";
    case EventKind::kInstant: return "instant";
  }
  return "unknown";
}

Json Event::json_value() const {
  Json e = Json::object()
               .set("ts_us", ts_us)
               .set("kind", event_kind_name(kind))
               .set("site", field(site));
  set_payload(e, *this);
  return e;
}

/// Single-writer ring: only the owning thread stores into `ring` (and
/// allocates it before publishing its first count); renderers read `name`
/// under the registry mutex and the slots below an acquired count.
struct EventLog::ThreadBuffer {
  explicit ThreadBuffer(int tid_) : tid(tid_) {}

  const int tid;
  std::string name;
  std::unique_ptr<Event[]> ring;
  std::size_t capacity = 0;
  std::atomic<std::uint64_t> count{0};
};

struct EventLog::Tagged {
  Event event;
  int tid;
};

EventLog::EventLog() : id_(next_log_id()) {
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

EventLog::~EventLog() = default;

EventLog& EventLog::global() {
  // Leaked so detached worker threads may record during static destruction.
  static EventLog* instance = new EventLog();
  return *instance;
}

void EventLog::set_switch(std::uint8_t bit, bool on) {
  if (on) {
    switches_.fetch_or(bit, std::memory_order_relaxed);
  } else {
    switches_.fetch_and(static_cast<std::uint8_t>(~bit),
                        std::memory_order_relaxed);
  }
}

EventLog::ThreadBuffer& EventLog::local_buffer() {
  // Per-thread cache of (log id -> buffer). Ids are never reused, so a
  // stale entry can never alias a new log.
  struct CacheEntry {
    std::uint64_t log_id;
    ThreadBuffer* buffer;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.log_id == id_) return *e.buffer;
  }
  std::lock_guard lock(registry_mutex_);
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(static_cast<int>(buffers_.size())));
  cache.push_back({id_, buffers_.back().get()});
  return *buffers_.back();
}

void EventLog::push(EventKind kind, const char* site, const char* detail,
                    const char* cat, double ts_us, double dur_us, double a,
                    double b, std::int32_t walker, std::int32_t crowd) {
  ThreadBuffer& buf = local_buffer();
  if (!buf.ring) {
    std::size_t cap = capacity_.load(std::memory_order_relaxed);
    if (cap == 0) cap = tracing() ? kTraceCapacity : kTailCapacity;
    buf.capacity = cap;
    buf.ring.reset(new Event[cap]);
  }
  const std::uint64_t c = buf.count.load(std::memory_order_relaxed);
  Event& e = buf.ring[c % buf.capacity];
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.a = a;
  e.b = b;
  e.walker = walker;
  e.crowd = crowd;
  e.cat = cat;
  e.kind = kind;
  copy_field(e.site, site);
  copy_field(e.detail, detail);
  buf.count.store(c + 1, std::memory_order_release);
}

void EventLog::span(const char* name, const char* cat, double ts_us,
                    double dur_us, const char* arg, double value) {
  if (!tracing()) return;
  push(EventKind::kSpan, name, arg, cat, ts_us, dur_us, value, 0.0, -1, -1);
}

void EventLog::instant(const char* name, const char* cat, const char* arg,
                       double value) {
  if (!tracing()) return;
  push(EventKind::kInstant, name, arg, cat, now_us(), 0.0, value, 0.0, -1,
       -1);
}

void EventLog::record(EventKind kind, const char* site, const char* detail,
                      double a, double b, std::int32_t walker,
                      std::int32_t crowd) {
  if (!recording()) return;
  push(kind, site, detail, nullptr, now_us(), 0.0, a, b, walker, crowd);
}

void EventLog::set_current_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(registry_mutex_);
  buf.name = name;
}

std::uint64_t EventLog::recorded() const {
  std::lock_guard lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->count.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t EventLog::dropped() const {
  std::lock_guard lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    // capacity is read only after a nonzero count (see collect()).
    const std::uint64_t count = buf->count.load(std::memory_order_acquire);
    if (count > 0 && count > buf->capacity) total += count - buf->capacity;
  }
  return total;
}

std::vector<EventLog::Tagged> EventLog::collect(bool forensic_only) const {
  std::vector<Tagged> events;
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& buf : buffers_) {
      // The owner sets ring and capacity before publishing its first count.
      const std::uint64_t count = buf->count.load(std::memory_order_acquire);
      if (count == 0) continue;
      const std::uint64_t held = std::min<std::uint64_t>(count, buf->capacity);
      std::size_t kept = 0;
      const std::size_t first = events.size();
      // Newest first, so the forensic tail keeps the latest events.
      for (std::uint64_t i = count; i > count - held; --i) {
        const Event& e = buf->ring[(i - 1) % buf->capacity];
        if (forensic_only && !e.forensic()) continue;
        if (forensic_only && kept == kTailCapacity) break;
        events.push_back({e, buf->tid});
        ++kept;
      }
      std::reverse(events.begin() + static_cast<std::ptrdiff_t>(first),
                   events.end());
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Tagged& lhs, const Tagged& rhs) {
                     return lhs.event.ts_us < rhs.event.ts_us;
                   });
  return events;
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> events;
  for (const Tagged& t : collect(false)) events.push_back(t.event);
  return events;
}

Json EventLog::trace_json() const {
  Json list = Json::array();
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& buf : buffers_) {
      Json meta = Json::object();
      meta.set("name", "thread_name").set("ph", "M").set("pid", 1);
      meta.set("tid", buf->tid);
      meta.set("args", Json::object().set(
                           "name", buf->name.empty()
                                       ? "thread-" + std::to_string(buf->tid)
                                       : buf->name));
      list.push_back(std::move(meta));
    }
  }
  for (const Tagged& t : collect(false)) {
    const Event& e = t.event;
    Json ev = Json::object();
    ev.set("name", field(e.site));
    ev.set("cat", e.forensic() ? event_kind_name(e.kind) : e.cat);
    ev.set("ph", e.kind == EventKind::kSpan ? "X" : "i");
    ev.set("ts", e.ts_us);
    if (e.kind == EventKind::kSpan) {
      ev.set("dur", e.dur_us);
    } else {
      ev.set("s", "t");  // thread-scoped instant
    }
    ev.set("pid", 1).set("tid", t.tid);
    Json args = Json::object();
    if (e.forensic()) {
      set_payload(args, e);
    } else if (e.detail[0] != '\0') {
      args.set(field(e.detail), e.a);
    }
    if (!args.members().empty()) ev.set("args", std::move(args));
    list.push_back(std::move(ev));
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(list));
  doc.set("displayTimeUnit", "ms");
  doc.set("droppedEvents", dropped());
  return doc;
}

void EventLog::write_json(const std::string& path) const {
  const std::string text = trace_json().dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot open trace output file: " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    throw Error("short write to trace output file: " + path);
  }
}

void EventLog::set_dump_path(const std::string& path) {
  std::lock_guard lock(registry_mutex_);
  dump_path_ = path;
}

std::string EventLog::dump_path() const {
  std::lock_guard lock(registry_mutex_);
  return dump_path_;
}

void EventLog::set_export_paths(const std::string& trace_path,
                                const std::string& metrics_path) {
  std::lock_guard lock(registry_mutex_);
  trace_export_path_ = trace_path;
  metrics_export_path_ = metrics_path;
}

void EventLog::register_section(const std::string& name,
                                std::function<Json()> fn) {
  std::lock_guard lock(registry_mutex_);
  for (auto& [existing, provider] : sections_) {
    if (existing == name) {
      provider = std::move(fn);
      return;
    }
  }
  sections_.emplace_back(name, std::move(fn));
}

Json EventLog::crash_dump_json(const std::string& reason,
                               const DumpContext& context) const {
  Json ctx = Json::object();
  if (context.walker >= 0) ctx.set("walker", context.walker);
  if (context.crowd >= 0) ctx.set("crowd", context.crowd);
  if (context.sweep >= 0) ctx.set("sweep", context.sweep);

  Json events = Json::array();
  for (const Tagged& t : collect(true)) events.push_back(t.event.json_value());

  Json dump = Json::object()
                  .set("crash_dump_version", 1)
                  .set("reason", reason)
                  .set("context", std::move(ctx))
                  .set("recorded", recorded())
                  .set("dropped", dropped())
                  .set("events", std::move(events))
                  .set("metrics", metrics().json_value())
                  .set("health", health().json_value());

  std::vector<std::pair<std::string, std::function<Json()>>> sections;
  {
    std::lock_guard lock(registry_mutex_);
    sections = sections_;
  }
  for (const auto& [name, provider] : sections) {
    if (provider) dump.set(name, provider());
  }
  return dump;
}

bool EventLog::write_crash_dump(const std::string& reason,
                                const DumpContext& context) noexcept {
  // Best-effort by design: this runs from terminate handlers and fatal
  // signal handlers, where nothing is guaranteed. Rendering JSON is not
  // async-signal-safe, but a partial/failed dump on a dying process is
  // strictly better than losing the tail.
  try {
    std::string dump_path, trace_path, metrics_path;
    {
      std::lock_guard lock(registry_mutex_);
      dump_path = dump_path_;
      trace_path = trace_export_path_;
      metrics_path = metrics_export_path_;
    }
    if (!trace_path.empty() && tracing()) {
      try {
        write_json(trace_path);
      } catch (...) {
      }
    }
    if (!metrics_path.empty()) {
      const std::string text = Json::object()
                                   .set("metrics", metrics().json_value())
                                   .set("health", health().json_value())
                                   .dump(2) +
                               "\n";
      if (std::FILE* f = std::fopen(metrics_path.c_str(), "wb")) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      }
    }
    if (dump_path.empty()) return false;
    const std::string text = crash_dump_json(reason, context).dump(2) + "\n";
    std::FILE* f = std::fopen(dump_path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return written == text.size();
  } catch (...) {
    return false;
  }
}

void EventLog::reset() {
  std::lock_guard lock(registry_mutex_);
  for (const auto& buf : buffers_) {
    buf->ring.reset();
    buf->capacity = 0;
    buf->count.store(0, std::memory_order_relaxed);
  }
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

namespace {

std::terminate_handler previous_terminate = nullptr;

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
  }
  return "signal";
}

void fatal_signal_handler(int sig) {
  EventLog::global().write_crash_dump(std::string("signal:") +
                                      signal_name(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void terminate_with_dump() {
  std::string reason = "terminate";
  if (std::exception_ptr ex = std::current_exception()) {
    try {
      std::rethrow_exception(ex);
    } catch (const std::exception& e) {
      reason = std::string("uncaught exception: ") + e.what();
    } catch (...) {
      reason = "uncaught exception (non-std)";
    }
  }
  EventLog::global().write_crash_dump(reason);
  if (previous_terminate != nullptr) previous_terminate();
  std::abort();
}

}  // namespace

void EventLog::install_crash_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  previous_terminate = std::set_terminate(&terminate_with_dump);
  const int fatal_signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL,
                               SIGABRT, SIGTERM, SIGINT};
  for (const int sig : fatal_signals) {
    std::signal(sig, &fatal_signal_handler);
  }
}

}  // namespace dqmc::obs
