// Event log core semantics: the two switches and the switched-off no-op,
// the per-thread single-writer ring (order, wrap accounting, concurrent
// writers racing a renderer), and its two renderings — the Chrome trace and
// the crash dump the supervisor and crash handlers flush
// (docs/OBSERVABILITY.md).
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"

namespace dqmc::obs {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override { scrub(); }
  void TearDown() override { scrub(); }

  // The global log is shared with every other suite in this binary:
  // restore a pristine state on both sides. Tests on a local EventLog
  // need no scrubbing.
  static void scrub() {
    EventLog& log = event_log();
    log.set_tracing(false);
    log.set_armed(false);
    log.set_dump_path("");
    log.set_export_paths("", "");
    log.set_buffer_capacity(0);
    log.reset();
  }
};

/// The trace event named `name`; fails the test when absent.
const Json& by_name(const Json& events, const std::string& name) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("name").str() == name) return events[i];
  }
  ADD_FAILURE() << "no event named " << name;
  return events[0];
}

TEST_F(EventLogTest, SwitchedOffRecordsNothing) {
  EventLog log;
  log.span("e", "t", 0.0, 1.0);
  log.instant("i", "t");
  log.record(EventKind::kNote, "quiet.site");
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.snapshot().empty());

  DQMC_EVENT(EventKind::kNote, "quiet.macro");
  EXPECT_EQ(event_log().recorded(), 0u);
}

TEST_F(EventLogTest, ArmingRecordsForensicEventsButNoSpans) {
  EventLog log;
  log.set_armed(true);
  log.span("span", "cat", 0.0, 1.0);
  log.instant("h2d", "gpusim", "bytes", 8.0);
  log.record(EventKind::kNote, "armed");
  ASSERT_EQ(log.recorded(), 1u);
  EXPECT_STREQ(log.snapshot()[0].site, "armed");
}

TEST_F(EventLogTest, RecordsSpanAndInstantEvents) {
  EventLog log;
  log.set_tracing(true);
  log.span("span", "cat", 10.0, 5.0, "n", 3.0);
  log.instant("mark", "cat");
  EXPECT_EQ(log.recorded(), 2u);

  const Json doc = log.trace_json();
  const Json& events = doc.at("traceEvents");
  // One thread_name metadata record plus the two events. The export is
  // sorted by timestamp, and the fixed ts of the span may land before or
  // after the clock-stamped instant, so look them up by name.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").str(), "M");
  EXPECT_EQ(events[0].at("name").str(), "thread_name");

  const Json& span = by_name(events, "span");
  EXPECT_EQ(span.at("ph").str(), "X");
  EXPECT_EQ(span.at("cat").str(), "cat");
  EXPECT_DOUBLE_EQ(span.at("ts").number(), 10.0);
  EXPECT_DOUBLE_EQ(span.at("dur").number(), 5.0);
  EXPECT_DOUBLE_EQ(span.at("args").at("n").number(), 3.0);

  // Instant events are thread-scoped ("s":"t") per the Chrome format.
  EXPECT_EQ(by_name(events, "mark").at("ph").str(), "i");
  EXPECT_EQ(by_name(events, "mark").at("s").str(), "t");
  EXPECT_FALSE(by_name(events, "mark").has("args"));

  EXPECT_DOUBLE_EQ(doc.at("droppedEvents").number(), 0.0);
}

TEST_F(EventLogTest, ForensicEventsAreTraceInstants) {
  EventLog log;
  log.set_tracing(true);  // tracing alone records forensic events too
  log.record(EventKind::kRecovery, "backend.enqueue", "retry", 3.0, 1.0,
             /*walker=*/5, /*crowd=*/2);
  const Json trace = log.trace_json();
  const Json& ev = by_name(trace.at("traceEvents"), "backend.enqueue");
  EXPECT_EQ(ev.at("ph").str(), "i");
  EXPECT_EQ(ev.at("s").str(), "t");
  EXPECT_EQ(ev.at("cat").str(), "recovery");
  EXPECT_EQ(ev.at("args").at("detail").str(), "retry");
  EXPECT_DOUBLE_EQ(ev.at("args").at("a").number(), 3.0);
  EXPECT_DOUBLE_EQ(ev.at("args").at("b").number(), 1.0);
  EXPECT_DOUBLE_EQ(ev.at("args").at("walker").number(), 5.0);
  EXPECT_DOUBLE_EQ(ev.at("args").at("crowd").number(), 2.0);

  // The same record in the dump, on the same clock.
  const Json dump = log.crash_dump_json("check");
  ASSERT_EQ(dump.at("events").size(), 1u);
  EXPECT_EQ(dump.at("events")[0].at("ts_us").number(), ev.at("ts").number());
}

TEST_F(EventLogTest, RecordsEventsInTimeOrder) {
  EventLog& log = event_log();
  log.set_armed(true);
  log.record(EventKind::kNote, "warmup", "phase", 1.0);
  log.record(EventKind::kFailpoint, "backend.enqueue", "device", 7.0, 2.0);
  log.record(EventKind::kRecovery, "backend.enqueue", "retry");

  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
  EXPECT_EQ(events[0].kind, EventKind::kNote);
  EXPECT_STREQ(events[1].site, "backend.enqueue");
  EXPECT_STREQ(events[1].detail, "device");
  EXPECT_DOUBLE_EQ(events[1].a, 7.0);
  EXPECT_DOUBLE_EQ(events[1].b, 2.0);
  EXPECT_STREQ(events[2].detail, "retry");
}

TEST_F(EventLogTest, MacroRecordsOnlyWhenArmed) {
  EventLog& log = event_log();
  DQMC_EVENT(EventKind::kNote, "off.site");
  EXPECT_EQ(log.recorded(), 0u);
  log.set_armed(true);
  DQMC_EVENT(EventKind::kNote, "on.site", "armed", 3.0);
  ASSERT_EQ(log.recorded(), 1u);
  EXPECT_STREQ(log.snapshot()[0].site, "on.site");
}

TEST_F(EventLogTest, MacroIsAStatement) {
  // The macro stays usable in single-statement positions.
  event_log().set_armed(true);
  if (event_log().armed())
    DQMC_EVENT(EventKind::kNote, "branch");
  else
    DQMC_EVENT(EventKind::kNote, "other");
  for (int i = 0; i < 2; ++i) DQMC_EVENT(EventKind::kNote, "x");
  EXPECT_EQ(event_log().recorded(), 3u);
}

TEST_F(EventLogTest, RecordStampsExplicitWalkerAndCrowd) {
  EventLog& log = event_log();
  log.set_armed(true);
  log.record(EventKind::kNote, "scoped", "", 0.0, 0.0, /*walker=*/9,
             /*crowd=*/4);
  log.record(EventKind::kNote, "unscoped");

  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].walker, 9);
  EXPECT_EQ(events[0].crowd, 4);
  EXPECT_EQ(events[1].walker, -1);
  EXPECT_EQ(events[1].crowd, -1);
  const Json dump = log.crash_dump_json("check");
  EXPECT_DOUBLE_EQ(dump.at("events")[0].at("crowd").number(), 4.0);
  EXPECT_FALSE(dump.at("events")[1].has("crowd"));
}

TEST_F(EventLogTest, RingWrapKeepsNewestAndCountsDropped) {
  EventLog log;
  log.set_buffer_capacity(8);
  log.set_tracing(true);
  for (int i = 0; i < 20; ++i) {
    log.span("e", "t", static_cast<double>(i), 1.0, "i",
             static_cast<double>(i));
  }
  EXPECT_EQ(log.recorded(), 20u);
  EXPECT_EQ(log.dropped(), 12u);

  // The survivors are the 8 newest events, oldest first, in both views.
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 8u);
  const Json doc = log.trace_json();
  const Json& trace = doc.at("traceEvents");
  ASSERT_EQ(trace.size(), 9u);  // metadata + 8
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(events[i].a, static_cast<double>(12 + i));
    EXPECT_DOUBLE_EQ(trace[i + 1].at("args").at("i").number(),
                     static_cast<double>(12 + i));
  }
  EXPECT_DOUBLE_EQ(doc.at("droppedEvents").number(), 12.0);
}

TEST_F(EventLogTest, CrashDumpRendersTheForensicTailOnly) {
  // A traced ring holds spans too; the dump renders forensic events only,
  // at most kTailCapacity per thread, newest kept.
  EventLog log;
  log.set_tracing(true);
  const std::size_t n = EventLog::kTailCapacity + 10;
  for (std::size_t i = 0; i < n; ++i) {
    log.span("phase", "phase", 0.0, 1.0);
    log.record(EventKind::kNote, "tail", "", static_cast<double>(i + 1));
  }
  EXPECT_EQ(log.dropped(), 0u);
  const Json events = log.crash_dump_json("check").at("events");
  ASSERT_EQ(events.size(), EventLog::kTailCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at("kind").str(), "note");
  }
  EXPECT_DOUBLE_EQ(events[0].at("a").number(), 11.0);
  EXPECT_DOUBLE_EQ(events[events.size() - 1].at("a").number(),
                   static_cast<double>(n));
}

TEST_F(EventLogTest, LongNamesTruncateInsteadOfOverflowing) {
  EventLog& log = event_log();
  log.set_armed(true);
  const std::string site(200, 's');
  const std::string detail(200, 'd');
  log.record(EventKind::kNote, site.c_str(), detail.c_str());
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].site), std::string(46, 's'));
  EXPECT_EQ(std::string(events[0].detail), std::string(31, 'd'));
}

TEST_F(EventLogTest, CrashDumpJsonCarriesTailContextAndSections) {
  EventLog& log = event_log();
  log.set_armed(true);
  log.record(EventKind::kFailpoint, "backend.enqueue.gpusim", "device");
  log.record(EventKind::kRecovery, "backend.enqueue.gpusim", "retry");
  log.register_section("custom",
                       [] { return Json::object().set("answer", 42); });

  const Json dump = log.crash_dump_json("fault:backend.enqueue.gpusim",
                                        {/*walker=*/3, /*crowd=*/1,
                                         /*sweep=*/17});
  EXPECT_DOUBLE_EQ(dump.at("crash_dump_version").number(), 1.0);
  EXPECT_EQ(dump.at("reason").str(), "fault:backend.enqueue.gpusim");
  EXPECT_DOUBLE_EQ(dump.at("context").at("walker").number(), 3.0);
  EXPECT_DOUBLE_EQ(dump.at("context").at("crowd").number(), 1.0);
  EXPECT_DOUBLE_EQ(dump.at("context").at("sweep").number(), 17.0);
  EXPECT_DOUBLE_EQ(dump.at("recorded").number(), 2.0);
  EXPECT_TRUE(dump.has("metrics"));
  EXPECT_TRUE(dump.has("health"));
  EXPECT_DOUBLE_EQ(dump.at("custom").at("answer").number(), 42.0);
  EXPECT_TRUE(log.crash_dump_json("no context").at("context").members()
                  .empty());

  const Json& events = dump.at("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("kind").str(), "failpoint");
  EXPECT_EQ(events[0].at("site").str(), "backend.enqueue.gpusim");
  EXPECT_EQ(events[1].at("kind").str(), "recovery");
  EXPECT_EQ(events[1].at("detail").str(), "retry");
}

TEST_F(EventLogTest, WriteCrashDumpProducesParseableFile) {
  EventLog& log = event_log();
  EXPECT_FALSE(log.write_crash_dump("nowhere"));  // no paths configured

  const std::string path = ::testing::TempDir() + "event_dump_test.json";
  log.set_dump_path(path);
  log.set_armed(true);
  log.record(EventKind::kNote, "pre-crash");
  ASSERT_TRUE(log.write_crash_dump("signal:SIGTERM"));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const Json dump = Json::parse(text.str());
  EXPECT_EQ(dump.at("reason").str(), "signal:SIGTERM");
  ASSERT_EQ(dump.at("events").size(), 1u);
  EXPECT_EQ(dump.at("events")[0].at("site").str(), "pre-crash");
  std::remove(path.c_str());
}

TEST_F(EventLogTest, ResetDropsEventsAndRestartsClock) {
  EventLog& log = event_log();
  log.set_armed(true);
  log.set_current_thread_name("resetter");
  log.record(EventKind::kNote, "before");
  ASSERT_EQ(log.recorded(), 1u);
  log.reset();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_GE(log.now_us(), 0.0);
  EXPECT_TRUE(log.armed());  // reset keeps the switches and thread names
  log.record(EventKind::kNote, "after");
  EXPECT_EQ(log.recorded(), 1u);
  bool named = false;
  const Json events = log.trace_json().at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("ph").str() == "M" &&
        events[i].at("args").at("name").str() == "resetter") {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST_F(EventLogTest, ConcurrentWritersAreLosslessWhileRendered) {
  // Four threads record spans and forensic events into their own rings
  // while a fifth renders the trace: no lock is shared with the writers,
  // nothing is lost below the ring capacity, and every rendering parses.
  EventLog log;
  log.set_tracing(true);
  constexpr int kThreads = 4;
  constexpr int kEvents = 1000;  // < per-thread capacity: nothing may drop
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, &running, t] {
      for (int i = 0; i < kEvents; ++i) {
        TraceSpan span(log, "work", "pool");
        span.arg("i", static_cast<double>(i));
        log.record(EventKind::kNote, "mt", "", static_cast<double>(t));
      }
      running.fetch_sub(1);
    });
  }
  int renders = 0;
  std::thread renderer([&log, &running, &renders] {
    do {
      const Json doc = Json::parse(log.trace_json().dump());
      EXPECT_TRUE(doc.at("traceEvents").is_array());
      ++renders;
    } while (running.load() > 0);
  });
  for (std::thread& w : writers) w.join();
  renderer.join();
  EXPECT_GE(renders, 1);

  const auto total = static_cast<std::uint64_t>(2 * kThreads * kEvents);
  EXPECT_EQ(log.recorded(), total);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.snapshot().size(), total);
  // Metadata for each writer plus every event.
  EXPECT_EQ(log.trace_json().at("traceEvents").size(), total + kThreads);
  EXPECT_EQ(log.crash_dump_json("check").at("events").size(),
            static_cast<std::size_t>(kThreads * kEvents));
}

TEST_F(EventLogTest, ThreadNamesAppearInMetadata) {
  EventLog log;
  log.set_tracing(true);
  log.set_current_thread_name("emitter");
  log.instant("e", "t");
  const Json doc = log.trace_json();
  const Json& meta = doc.at("traceEvents")[0];
  EXPECT_EQ(meta.at("name").str(), "thread_name");
  EXPECT_EQ(meta.at("args").at("name").str(), "emitter");
}

TEST_F(EventLogTest, WriteJsonProducesParsableFile) {
  EventLog log;
  log.set_tracing(true);
  log.span("span", "cat", 0.0, 1.0);
  const std::string path = testing::TempDir() + "dqmc_test_trace.json";
  log.write_json(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(Json::parse(text.str()).at("traceEvents").is_array());
}

TEST_F(EventLogTest, TraceSpanEmitsOneCompleteEventWithDuration) {
  EventLog log;
  log.set_tracing(true);
  {
    TraceSpan span(log, "scoped", "cat");
    span.arg("k", 2.0);
  }
  ASSERT_EQ(log.recorded(), 1u);
  const Json doc = log.trace_json();
  const Json& ev = doc.at("traceEvents")[1];
  EXPECT_EQ(ev.at("name").str(), "scoped");
  EXPECT_GE(ev.at("dur").number(), 0.0);
  EXPECT_DOUBLE_EQ(ev.at("args").at("k").number(), 2.0);
}

TEST_F(EventLogTest, TraceSpanSwitchCapturedAtConstruction) {
  EventLog log;
  {
    TraceSpan span(log, "late", "cat");
    log.set_tracing(true);  // mid-span enable must not emit a torn event
  }
  EXPECT_EQ(log.recorded(), 0u);
}

// The untraced path must stay O(one atomic load). A generous wall-clock
// bound keeps this robust on loaded CI machines while still catching
// accidental locking or allocation on that path (which would be ~100x
// slower than the ~ns/span this allows).
TEST_F(EventLogTest, UntracedSpansAreCheap) {
  EventLog log;
  Stopwatch watch;
  for (int i = 0; i < 1'000'000; ++i) {
    TraceSpan span(log, "noop", "bench");
  }
  EXPECT_LT(watch.seconds(), 1.0);
}

}  // namespace
}  // namespace dqmc::obs
