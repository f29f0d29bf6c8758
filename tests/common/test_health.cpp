#include "obs/health.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/event_log.h"

namespace dqmc::obs {
namespace {

TEST(HealthMonitor, DisabledRecordsNothing) {
  HealthMonitor mon;
  mon.record_wrap_drift(1.0);
  mon.record_sign(-1);
  const HealthMonitor::Summary s = mon.summary();
  EXPECT_EQ(s.wrap_drift.count, 0u);
  EXPECT_EQ(s.sign_samples, 0u);
  EXPECT_EQ(s.violations, 0u);
}

TEST(HealthMonitor, EmptyAverageSignIsOne) {
  EXPECT_DOUBLE_EQ(HealthMonitor::Summary{}.average_sign(), 1.0);
}

TEST(HealthMonitor, WrapDriftThresholdViolation) {
  HealthMonitor mon;
  mon.set_enabled(true);
  HealthThresholds t;
  t.max_wrap_drift = 1e-6;
  mon.set_thresholds(t);

  mon.record_wrap_drift(1e-9);  // fine
  EXPECT_EQ(mon.violations(), 0u);
  mon.record_wrap_drift(1e-3);  // violation
  EXPECT_EQ(mon.violations(), 1u);

  const HealthMonitor::Summary s = mon.summary();
  EXPECT_EQ(s.wrap_drift.count, 2u);
  EXPECT_DOUBLE_EQ(s.wrap_drift.max, 1e-3);
  EXPECT_DOUBLE_EQ(s.wrap_drift.min, 1e-9);
}

TEST(HealthMonitor, SignWarnsOncePerCrossing) {
  HealthMonitor mon;
  mon.set_enabled(true);
  HealthThresholds t;
  t.min_avg_sign = 0.5;
  t.min_sign_samples = 4;
  mon.set_thresholds(t);

  // 4 positive samples: average 1.0, healthy.
  for (int i = 0; i < 4; ++i) mon.record_sign(+1);
  EXPECT_EQ(mon.violations(), 0u);

  // Drive the average below 0.5: one violation at the crossing, not one
  // per subsequent sample.
  mon.record_sign(-1);  // 3/5 = 0.6
  mon.record_sign(-1);  // 2/6 = 0.33 -> crossing
  mon.record_sign(-1);  // 1/7 -> still low, no new violation
  EXPECT_EQ(mon.violations(), 1u);

  // Recover above threshold, then cross again -> second violation.
  for (int i = 0; i < 5; ++i) mon.record_sign(+1);  // 6/12 = 0.5, healthy
  EXPECT_EQ(mon.violations(), 1u);
  mon.record_sign(-1);  // 5/13 < 0.5 -> second crossing
  EXPECT_EQ(mon.violations(), 2u);
}

TEST(HealthMonitor, ViolationEmitsInstantTraceEvent) {
  EventLog& log = event_log();
  log.reset();
  log.set_tracing(true);

  HealthMonitor mon;
  mon.set_enabled(true);
  mon.record_wrap_drift(1.0);  // far above any threshold

  bool found = false;
  const Json events = log.trace_json().at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at("name").str() == "health.wrap_drift_warn") found = true;
  }
  EXPECT_TRUE(found);

  log.set_tracing(false);
  log.reset();
}

TEST(HealthMonitor, ViolationIsOneRecordInBothRenderings) {
  EventLog& log = event_log();
  log.reset();
  log.set_tracing(true);
  log.set_armed(true);

  HealthMonitor mon;
  mon.set_enabled(true);
  mon.record_wrap_drift(1.0);
  EXPECT_EQ(log.recorded(), 1u);

  const Json trace = log.trace_json().at("traceEvents");
  const Json dump = log.crash_dump_json("check").at("events");
  log.set_tracing(false);
  log.set_armed(false);
  log.reset();

  // Skip the thread_name metadata records: one instant is left.
  std::vector<const Json*> instants;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].at("ph").str() != "M") instants.push_back(&trace[i]);
  }
  ASSERT_EQ(instants.size(), 1u);
  const Json& instant = *instants[0];
  EXPECT_EQ(instant.at("name").str(), "health.wrap_drift_warn");
  EXPECT_EQ(instant.at("cat").str(), "health");
  EXPECT_EQ(instant.at("ph").str(), "i");
  EXPECT_DOUBLE_EQ(instant.at("args").at("a").number(), 1.0);
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].at("kind").str(), "health");
  EXPECT_EQ(dump[0].at("site").str(), "health.wrap_drift_warn");
  EXPECT_EQ(dump[0].at("detail").str(), "violation");
  EXPECT_EQ(dump[0].at("ts_us").number(), instant.at("ts").number());
}

TEST(HealthMonitor, JsonSummaryHasStableKeys) {
  HealthMonitor mon;
  mon.set_enabled(true);
  mon.record_wrap_drift(1e-9);
  mon.record_sign(+1);

  const Json j = Json::parse(mon.json_value().dump());
  EXPECT_TRUE(j.at("enabled").boolean());
  EXPECT_DOUBLE_EQ(j.at("wrap_drift").at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("wrap_drift").at("max").number(), 1e-9);
  EXPECT_DOUBLE_EQ(j.at("average_sign").number(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("sign_samples").number(), 1.0);
  EXPECT_TRUE(j.has("violations"));
  EXPECT_TRUE(j.at("thresholds").has("max_wrap_drift"));
}

TEST(HealthMonitor, ResetKeepsThresholdsAndEnablement) {
  HealthMonitor mon;
  mon.set_enabled(true);
  HealthThresholds t;
  t.max_wrap_drift = 123.0;
  mon.set_thresholds(t);
  mon.record_wrap_drift(1e3);
  EXPECT_EQ(mon.violations(), 1u);

  mon.reset();
  EXPECT_TRUE(mon.enabled());
  EXPECT_DOUBLE_EQ(mon.thresholds().max_wrap_drift, 123.0);
  EXPECT_EQ(mon.violations(), 0u);
  EXPECT_EQ(mon.summary().wrap_drift.count, 0u);
}

TEST(HealthMonitor, MergeAddsSamplesAndViolations) {
  HealthMonitor a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  HealthThresholds t;
  t.max_wrap_drift = 1e-6;
  a.set_thresholds(t);
  a.record_wrap_drift(1e-9);
  a.record_wrap_drift(1e-3);  // one violation
  a.record_sign(+1);
  b.record_wrap_drift(1e-8);
  b.record_sign(-1);
  b.record_sign(+1);

  HealthMonitor merged;  // disabled, default thresholds: both are kept
  for (const HealthMonitor* m : {&a, &b}) {
    std::stringstream block;
    m->save(block);
    merged.merge(block);
  }
  const HealthMonitor::Summary s = merged.summary();
  EXPECT_FALSE(merged.enabled());
  EXPECT_EQ(s.wrap_drift.count, 3u);
  EXPECT_DOUBLE_EQ(s.wrap_drift.sum, 1e-9 + 1e-3 + 1e-8);
  EXPECT_DOUBLE_EQ(s.wrap_drift.min, 1e-9);
  EXPECT_DOUBLE_EQ(s.wrap_drift.max, 1e-3);
  EXPECT_EQ(s.sign_samples, 3u);
  EXPECT_DOUBLE_EQ(s.sign_sum, 1.0);
  EXPECT_EQ(s.violations, 1u);
  EXPECT_DOUBLE_EQ(merged.thresholds().max_wrap_drift,
                   HealthThresholds{}.max_wrap_drift);
}

}  // namespace
}  // namespace dqmc::obs
