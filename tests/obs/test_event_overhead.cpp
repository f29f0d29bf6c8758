// The <1% overhead budget of the event log (ctest label `obs`): a DQMC_EVENT
// site is one relaxed atomic load while the log is neither armed nor
// tracing, so a million hits must cost far under a second even on a loaded
// CI machine — ~100x above the expected cost, catching any accidental lock,
// allocation, or clock read sneaking onto that path. The armed path must
// stay a bounded lock-free ring store: no allocation after the ring exists,
// so 1M armed events also finish within the bound.
// bench/obs_overhead.cpp has the precise ns/event numbers.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace dqmc::obs {
namespace {

class EventOverheadTest : public ::testing::Test {
 protected:
  void SetUp() override { scrub(); }
  void TearDown() override { scrub(); }
  static void scrub() {
    event_log().set_armed(false);
    event_log().set_tracing(false);
    event_log().reset();
  }
};

TEST_F(EventOverheadTest, DisarmedSitesAreCheap) {
  Stopwatch watch;
  for (int i = 0; i < 1'000'000; ++i) {
    DQMC_EVENT(EventKind::kNote, "noop.site", "detail", 1.0);
  }
  EXPECT_LT(watch.seconds(), 1.0);
  EXPECT_EQ(event_log().recorded(), 0u);
}

TEST_F(EventOverheadTest, ArmedRecordingIsBounded) {
  event_log().set_armed(true);
  Stopwatch watch;
  for (int i = 0; i < 1'000'000; ++i) {
    DQMC_EVENT(EventKind::kNote, "armed.site", "detail",
               static_cast<double>(i));
  }
  EXPECT_LT(watch.seconds(), 2.0);
  EXPECT_EQ(event_log().recorded(), 1'000'000u);
  // An untraced ring is the fixed forensic tail: the tail stays, the rest
  // is accounted dropped.
  EXPECT_EQ(event_log().dropped(), 1'000'000u - EventLog::kTailCapacity);
}

}  // namespace
}  // namespace dqmc::obs
