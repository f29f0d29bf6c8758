#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace dqmc::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, StoresLastValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, SummaryStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(-2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_NEAR(h.mean(), 2.0 / 3.0, 1e-15);
}

TEST(Histogram, IgnoresNonFiniteSamples) {
  Histogram h;
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, CumulativeDecadeBuckets) {
  Histogram h;
  h.observe(0.05);  // decade bucket le = 0.1
  h.observe(0.5);   // le = 1
  h.observe(0.7);   // le = 1
  h.observe(5.0);   // le = 10
  h.observe(1e20);  // overflow bucket
  const Json j = h.json_value();
  const Json& buckets = j.at("buckets");
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_NEAR(buckets[0].at("le").number(), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("le").number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").number(), 3.0);  // cumulative
  EXPECT_DOUBLE_EQ(buckets[2].at("le").number(), 10.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number(), 4.0);
  EXPECT_EQ(buckets[3].at("le").str(), "inf");
  EXPECT_DOUBLE_EQ(buckets[3].at("count").number(), 5.0);
}

TEST(Histogram, NearestRankQuantiles) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty: defined as 0
  for (int i = 100; i >= 1; --i) h.observe(static_cast<double>(i));
  // Nearest-rank over the sorted window {1..100}: rank = floor(q * n).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 51.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 96.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);   // clamped to the last sample
  EXPECT_DOUBLE_EQ(h.quantile(7.0), 100.0);   // out-of-range q clamps
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.0);
}

TEST(Histogram, QuantileWindowKeepsRecentSamples) {
  Histogram h;
  // Fill the window with large values, then overwrite it completely with
  // small ones: the quantiles must reflect only the recent window.
  for (std::size_t i = 0; i < Histogram::kQuantileWindow; ++i) {
    h.observe(1000.0);
  }
  for (std::size_t i = 0; i < Histogram::kQuantileWindow; ++i) {
    h.observe(1.0);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
  // count/sum stay lifetime aggregates; only the quantile window slides.
  EXPECT_EQ(h.count(), 2 * Histogram::kQuantileWindow);
}

TEST(Histogram, JsonIncludesQuantilesOnlyWhenPopulated) {
  Histogram h;
  EXPECT_FALSE(h.json_value().has("p50"));
  h.observe(2.0);
  h.observe(4.0);
  const Json j = h.json_value();
  ASSERT_TRUE(j.has("p50"));
  ASSERT_TRUE(j.has("p95"));
  ASSERT_TRUE(j.has("p99"));
  EXPECT_DOUBLE_EQ(j.at("p50").number(), 4.0);  // rank 1 of sorted {2,4}
  EXPECT_DOUBLE_EQ(j.at("p99").number(), 4.0);
  h.reset();
  EXPECT_FALSE(h.json_value().has("p50"));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // reset clears the window too
}

TEST(MetricsRegistry, DisabledHelpersAreNoOps) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.count("c");
  reg.set("g", 1.0);
  reg.observe("h", 1.0);
  // Nothing was even registered.
  EXPECT_EQ(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_gauge("g"), nullptr);
  EXPECT_EQ(reg.find_histogram("h"), nullptr);
}

TEST(MetricsRegistry, HelpersRecordWhenEnabled) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.count("accepts", 3);
  reg.set("rate", 0.5);
  reg.observe("sizes", 8.0);
  ASSERT_NE(reg.find_counter("accepts"), nullptr);
  EXPECT_EQ(reg.find_counter("accepts")->value(), 3u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("rate")->value(), 0.5);
  EXPECT_EQ(reg.find_histogram("sizes")->count(), 1u);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("x");
  Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
}

TEST(MetricsRegistry, CrossKindNameCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), InvalidArgument);
  EXPECT_THROW(reg.histogram("name"), InvalidArgument);
  reg.gauge("other");
  EXPECT_THROW(reg.counter("other"), InvalidArgument);
}

TEST(MetricsRegistry, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.count("sweeps", 7);
  reg.set("accept_rate", 0.25);
  reg.observe("flush_rank", 32.0);

  const Json parsed = Json::parse(reg.json());
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("sweeps").number(), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("accept_rate").number(), 0.25);
  const Json& h = parsed.at("histograms").at("flush_rank");
  EXPECT_DOUBLE_EQ(h.at("count").number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("mean").number(), 32.0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.count("c", 5);
  Counter* before = &reg.counter("c");
  reg.reset();
  EXPECT_EQ(reg.find_counter("c")->value(), 0u);
  EXPECT_EQ(&reg.counter("c"), before);
}

TEST(MetricsRegistry, ReportListsEveryMetric) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.count("my.counter");
  reg.set("my.gauge", 1.0);
  reg.observe("my.histogram", 2.0);
  const std::string r = reg.report();
  EXPECT_NE(r.find("my.counter"), std::string::npos);
  EXPECT_NE(r.find("my.gauge"), std::string::npos);
  EXPECT_NE(r.find("my.histogram"), std::string::npos);
}

/// `from` saved and merged into `into`, as a fleet folds a chain's block.
void fold(const MetricsRegistry& from, MetricsRegistry& into) {
  std::stringstream block;
  from.save(block);
  into.merge(block);
}

TEST(MetricsRegistry, MergeFoldsEachKindByItsRule) {
  MetricsRegistry a, b, merged;
  a.set_enabled(true);
  b.set_enabled(true);
  a.count("sweeps", 3);
  a.set("rate", 0.25);
  a.observe("gflops", 2.0);
  a.observe("gflops", -4.0);
  b.count("sweeps", 5);
  b.count("only_b", 1);
  b.set("rate", 0.75);
  b.observe("gflops", 8.0);

  fold(a, merged);  // merge works on a disabled registry too
  fold(b, merged);
  EXPECT_EQ(merged.find_counter("sweeps")->value(), 8u);  // counters add
  EXPECT_EQ(merged.find_counter("only_b")->value(), 1u);
  EXPECT_DOUBLE_EQ(merged.find_gauge("rate")->value(), 0.75);  // last wins
  const Histogram& h = *merged.find_histogram("gflops");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), -4.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  // Buckets add too: the merged JSON equals one histogram fed all samples.
  Histogram direct;
  for (double v : {2.0, -4.0, 8.0}) direct.observe(v);
  EXPECT_EQ(h.json_value().dump(), direct.json_value().dump());
}

TEST(MetricsRegistry, MergedWindowKeepsTheNewestSamplesInOrder) {
  // Two chains of a full window each: the merged window is the second
  // chain's, so the quantiles are its alone, while count spans both.
  MetricsRegistry first, second, merged;
  for (std::size_t i = 0; i < Histogram::kQuantileWindow + 10; ++i) {
    first.histogram("h").observe(1000.0 + static_cast<double>(i));
  }
  for (std::size_t i = 0; i < Histogram::kQuantileWindow; ++i) {
    second.histogram("h").observe(1.0);
  }
  fold(first, merged);
  fold(second, merged);
  const Histogram& h = *merged.find_histogram("h");
  EXPECT_EQ(h.count(), 2 * Histogram::kQuantileWindow + 10);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);

  // A short second chain keeps the first chain's newest samples: the
  // window's oldest survivor is the first chain's sample at the right rank.
  MetricsRegistry tail, merged_tail;
  tail.histogram("h").observe(1.0);
  fold(first, merged_tail);
  fold(tail, merged_tail);
  const Histogram& t = *merged_tail.find_histogram("h");
  EXPECT_DOUBLE_EQ(t.quantile(0.0), 1.0);
  // Window: first chain's samples 11 .. 265 (the newest 255), then 1.0.
  EXPECT_DOUBLE_EQ(t.quantile(1.0 / static_cast<double>(
                                  Histogram::kQuantileWindow)),
                   1011.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 1000.0 + Histogram::kQuantileWindow + 9);
}

TEST(MetricsRegistry, SaveMergeIntoAnEmptyRegistryIsExact) {
  MetricsRegistry reg, copy;
  reg.set_enabled(true);
  reg.count("c", 12);
  reg.set("g", 1.0 / 3.0);
  for (int i = 1; i <= 300; ++i) reg.observe("h", 0.1 * i);
  fold(reg, copy);
  EXPECT_EQ(copy.json(), reg.json());
}

}  // namespace
}  // namespace dqmc::obs
