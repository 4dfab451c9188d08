// Tests for the observability layer (src/obs/): registry identity and
// find-or-create semantics, sharded-counter merge correctness under real
// thread concurrency (the TSan CI job runs this suite), deterministic
// Prometheus text exposition (golden text), callback metric lifetime, and
// the Chrome-trace exporter — whose output is parsed back with
// util::JsonValue to prove it is well-formed JSON of the documented shape.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace htor::obs {
namespace {

// ------------------------------------------------------------ registry

TEST(MetricsRegistry, CounterFindOrCreateSharesCells) {
  MetricsRegistry reg;
  Counter a = reg.counter("requests", {{"endpoint", "link"}});
  Counter b = reg.counter("requests", {{"endpoint", "link"}});
  Counter other = reg.counter("requests", {{"endpoint", "summary"}});

  a.inc();
  b.inc(2);
  other.inc(10);

  // a and b are two handles onto the same cells; `other` is a distinct
  // label set in the same family.
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 10u);
  EXPECT_EQ(reg.counter_value("requests", {{"endpoint", "link"}}), 3u);
  EXPECT_EQ(reg.counter_value("requests", {{"endpoint", "summary"}}), 10u);
  EXPECT_EQ(reg.counter_value("requests", {{"endpoint", "absent"}}), 0u);
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(7);
  h.record(3);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().total(), 0u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), InvalidArgument);
  EXPECT_THROW(reg.histogram("x"), InvalidArgument);
  // A family must be kind-homogeneous even across label sets.
  reg.counter("fam", {{"a", "1"}});
  EXPECT_THROW(reg.histogram("fam", {{"a", "2"}}), InvalidArgument);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("depth");
  g.set(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(reg.gauge_value("depth"), 3);
}

TEST(MetricsRegistry, HistogramBucketsAreLog2Exclusive) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat");
  // Bucket i is the smallest i with value <= 2^i: 0,1 -> bucket 0;
  // 2 -> bucket 1; 3,4 -> bucket 2; 65536 (> 2^15) -> overflow.
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(1u << 15);
  h.record((1u << 15) + 1);

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[15], 1u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_EQ(snap.total(), 7u);
  EXPECT_EQ(snap.sum, 0u + 1 + 2 + 3 + 4 + (1u << 15) + (1u << 15) + 1);
}

TEST(MetricsRegistry, ResetValuesKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter c = reg.counter("n");
  Histogram h = reg.histogram("d");
  Gauge g = reg.gauge("g");
  c.inc(9);
  h.record(100);
  g.set(4);

  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().total(), 0u);
  EXPECT_EQ(g.value(), 0);

  // Old handles still point at live cells.
  c.inc();
  EXPECT_EQ(reg.counter_value("n"), 1u);
}

// reset_values must also drop the callback metrics' cached last-scrape
// state: a stale cache would let polled_value report a pre-reset value as
// if the post-reset world had been scraped.  (The counter/histogram half of
// reset is covered above; this pins the callback half.)
TEST(MetricsRegistry, ResetValuesDropsCallbackLastScrapeCache) {
  MetricsRegistry reg;
  std::int64_t depth = 5;
  CallbackMetric cb = reg.callback("cache_depth", {}, MetricsRegistry::Kind::Gauge,
                                   [&] { return depth; });
  // Nothing scraped yet: the cache is empty.
  EXPECT_EQ(reg.polled_value("cache_depth"), 0);
  (void)reg.render_prometheus();
  EXPECT_EQ(reg.polled_value("cache_depth"), 5);

  reg.reset_values();
  EXPECT_EQ(reg.polled_value("cache_depth"), 0);

  // The registration survived the reset; the next scrape re-polls.
  (void)reg.render_prometheus();
  EXPECT_EQ(reg.polled_value("cache_depth"), 5);
}

// The core concurrency claim: kShards cache-line cells merged at scrape
// time lose no increments under real contention.  8 threads (more than
// some shard assignments, exercising both exclusive and shared cells when
// the process has handed out many thread ids already) each bump a shared
// counter and histogram a deterministic number of times; totals must be
// exact.  The TSan CI job runs this test to prove the relaxed fetch_adds
// and the scrape-side loads race-free.
TEST(MetricsRegistry, ConcurrentIncrementsMergeExactly) {
  MetricsRegistry reg;
  Counter counter = reg.counter("concurrent_total");
  Histogram hist = reg.histogram("concurrent_lat");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // lint: allow(naked-thread) bounded test worker, joined below
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.inc();
        hist.record(static_cast<std::uint64_t>(t));  // per-thread fixed bucket
      }
    });
  }
  // Scrape concurrently with the writers: totals only need to be exact
  // after the join, but the loads must be race-free throughout (TSan).
  for (int i = 0; i < 100; ++i) {
    (void)counter.value();
    (void)hist.snapshot();
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.total(), kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += t * kPerThread;
  EXPECT_EQ(snap.sum, expected_sum);
}

// ------------------------------------------------------------ callbacks

TEST(MetricsRegistry, CallbackMetricsSumAndUnregister) {
  MetricsRegistry reg;
  std::int64_t depth_a = 3;
  {
    CallbackMetric a = reg.callback("queue_depth", {{"pool", "serve"}},
                                    MetricsRegistry::Kind::Gauge,
                                    [&] { return depth_a; });
    CallbackMetric b = reg.callback("queue_depth", {{"pool", "serve"}},
                                    MetricsRegistry::Kind::Gauge,
                                    [] { return std::int64_t{4}; });
    // Two live registrations of one identity sum at render time.
    EXPECT_NE(reg.render_prometheus().find("queue_depth{pool=\"serve\"} 7"),
              std::string::npos);
    depth_a = 10;
    EXPECT_NE(reg.render_prometheus().find("queue_depth{pool=\"serve\"} 14"),
              std::string::npos);
  }
  // Both handles destroyed: the metric disappears from the exposition.
  EXPECT_EQ(reg.render_prometheus().find("queue_depth"), std::string::npos);
}

TEST(MetricsRegistry, CallbackMetricMoveTransfersOwnership) {
  MetricsRegistry reg;
  CallbackMetric a = reg.callback("cb", {}, MetricsRegistry::Kind::Counter,
                                  [] { return std::int64_t{1}; });
  CallbackMetric b = std::move(a);
  EXPECT_NE(reg.render_prometheus().find("cb 1"), std::string::npos);
  CallbackMetric c;
  c = std::move(b);
  EXPECT_NE(reg.render_prometheus().find("cb 1"), std::string::npos);
}

// ------------------------------------------------------------ exposition

// Byte-exact golden text: the registry's render order is (name, labels), a
// # TYPE line exactly once per family, histograms rendered cumulative with
// a closing le="+Inf" bucket plus _sum/_count.  Deterministic output is a
// design goal (header comment in metrics.hpp) — this is the test that
// holds it.
TEST(MetricsRegistry, PrometheusGoldenText) {
  MetricsRegistry reg;
  reg.counter("zz_last").inc(1);  // registered first, must render last
  reg.counter("aa_requests", {{"endpoint", "link"}}).inc(5);
  reg.counter("aa_requests", {{"endpoint", "summary"}}).inc(2);
  reg.gauge("mm_depth").set(-3);
  Histogram h = reg.histogram("kk_lat", {{"stage", "decode"}});
  h.record(1);  // bucket 0 (le 1)
  h.record(2);  // bucket 1 (le 2)
  h.record(70000);  // overflow (> 2^15 = 32768)

  std::string expected;
  expected += "# TYPE aa_requests counter\n";
  expected += "aa_requests{endpoint=\"link\"} 5\n";
  expected += "aa_requests{endpoint=\"summary\"} 2\n";
  expected += "# TYPE kk_lat histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    cumulative += (i == 0 || i == 1) ? 1 : 0;
    expected += "kk_lat_bucket{stage=\"decode\",le=\"" + std::to_string(1u << i) +
                "\"} " + std::to_string(cumulative) + "\n";
  }
  expected += "kk_lat_bucket{stage=\"decode\",le=\"+Inf\"} 3\n";
  expected += "kk_lat_sum{stage=\"decode\"} 70003\n";
  expected += "kk_lat_count{stage=\"decode\"} 3\n";
  expected += "# TYPE mm_depth gauge\n";
  expected += "mm_depth -3\n";
  expected += "# TYPE zz_last counter\n";
  expected += "zz_last 1\n";

  EXPECT_EQ(reg.render_prometheus(), expected);
}

TEST(MetricsRegistry, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("esc", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("esc{path=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos);
}

TEST(MetricsRegistry, HistogramFamilyListsLabelSetsInOrder) {
  MetricsRegistry reg;
  reg.histogram("stage_us", {{"stage", "b"}}).record(4);
  reg.histogram("stage_us", {{"stage", "a"}}).record(2);
  reg.histogram("stage_us", {{"stage", "a"}}).record(2);
  reg.histogram("unrelated").record(1);

  const auto rows = reg.histogram_family("stage_us");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].labels, "{stage=\"a\"}");
  EXPECT_EQ(rows[0].values.total(), 2u);
  EXPECT_EQ(rows[0].values.sum, 4u);
  EXPECT_EQ(rows[1].labels, "{stage=\"b\"}");
  EXPECT_EQ(rows[1].values.total(), 1u);
}

// ------------------------------------------------------------ tracing

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Spans record into the global registry; isolate from other suites.
    MetricsRegistry::global().reset_values();
    TraceCollector::global().disable();
  }
  void TearDown() override { TraceCollector::global().disable(); }
};

TEST_F(TraceTest, SpanRecordsStageHistogramWithoutCollector) {
  ASSERT_FALSE(TraceCollector::global().enabled());
  { OBS_SPAN("test.stage_only"); }
  const auto snap = MetricsRegistry::global().histogram_snapshot(
      std::string(kStageDurationMetric), {{"stage", "test.stage_only"}});
  EXPECT_EQ(snap.total(), 1u);
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
}

TEST_F(TraceTest, ChromeTraceJsonParsesBack) {
  auto& collector = TraceCollector::global();
  collector.enable();
  {
    OBS_SPAN("test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    { OBS_SPAN("test.inner"); }
  }
  collector.disable();
  ASSERT_EQ(collector.event_count(), 2u);

  // The exporter's output must be a valid Chrome trace document — prove it
  // by round-tripping through the strict JSON parser.
  const JsonValue doc = JsonValue::parse(collector.render_json());
  ASSERT_TRUE(doc.contains("traceEvents"));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_FALSE(ev.at("name").as_string().empty());
    EXPECT_EQ(ev.at("pid").as_uint(), 1u);
    (void)ev.at("ts").as_uint();
    (void)ev.at("dur").as_uint();
    (void)ev.at("tid").as_uint();
  }
  // Ordered by start time: outer opened before inner.
  EXPECT_EQ(events[0].at("name").as_string(), "test.outer");
  EXPECT_EQ(events[1].at("name").as_string(), "test.inner");
  EXPECT_LE(events[0].at("ts").as_uint(), events[1].at("ts").as_uint());
  // The outer span encloses the sleep; the inner one does not.
  EXPECT_GE(events[0].at("dur").as_uint(), 2000u);
  EXPECT_LT(events[1].at("dur").as_uint(), events[0].at("dur").as_uint());
}

TEST_F(TraceTest, EnableClearsPriorEvents) {
  auto& collector = TraceCollector::global();
  collector.enable();
  { OBS_SPAN("test.first"); }
  EXPECT_EQ(collector.event_count(), 1u);
  collector.enable();  // re-enable: fresh capture
  EXPECT_EQ(collector.event_count(), 0u);
  { OBS_SPAN("test.second"); }
  collector.disable();
  ASSERT_EQ(collector.event_count(), 1u);
  const JsonValue doc = JsonValue::parse(collector.render_json());
  EXPECT_EQ(doc.at("traceEvents").as_array()[0].at("name").as_string(), "test.second");
}

TEST_F(TraceTest, WriteFileEmitsParseableDocument) {
  auto& collector = TraceCollector::global();
  collector.enable();
  { OBS_SPAN("test.file"); }
  collector.disable();

  const auto path = std::filesystem::temp_directory_path() /
                    "htor_obs_trace_test.json";
  collector.write_file(path.string());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::filesystem::remove(path);

  const JsonValue doc = JsonValue::parse(buf.str());
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 1u);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

TEST_F(TraceTest, DisabledCollectorRecordsNothing) {
  // disable() deliberately keeps captured events (write_file runs after
  // disable); clear leftovers from other tests with an enable/disable pair.
  TraceCollector::global().enable();
  TraceCollector::global().disable();
  { OBS_SPAN("test.silent"); }
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
  const JsonValue doc = JsonValue::parse(TraceCollector::global().render_json());
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

}  // namespace
}  // namespace htor::obs
