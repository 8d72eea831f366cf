// Observability subsystem: metrics registry semantics, span recording,
// and the Chrome trace-event / metrics JSON exports -- including one
// full-stack check that a parallel suite run produces spans from the
// engine, thread-pool and suite layers in a schema-valid trace.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fti/harness/suite.hpp"
#include "fti/obs/json.hpp"
#include "fti/obs/metrics.hpp"
#include "fti/obs/trace.hpp"
#include "fti/util/json_reader.hpp"

namespace fti::obs {
namespace {

/// The registry and tracer are process-wide; every test starts from
/// zeroed values and leaves recording disabled.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    Registry::instance().reset_values();
    Tracer::instance().reset_values();
  }
  void TearDown() override {
    set_enabled(false);
    Registry::instance().reset_values();
    Tracer::instance().reset_values();
  }
};

TEST_F(ObsTest, CounterMutationsAreGatedOnEnabled) {
  Counter& counter = obs::counter("test.gated");
  counter.inc();
  counter.add(10);
  EXPECT_EQ(counter.value(), 0u) << "disabled mutations must be dropped";
  set_enabled(true);
  counter.inc();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5u);
}

TEST_F(ObsTest, GaugeHoldsLastWrite) {
  set_enabled(true);
  Gauge& gauge = obs::gauge("test.gauge");
  gauge.set(1.5);
  gauge.set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
}

TEST_F(ObsTest, HistogramBucketsAreInclusiveUpperBounds) {
  set_enabled(true);
  Histogram& hist = obs::histogram("test.hist", {1.0, 10.0});
  hist.observe(0.5);   // <= 1       -> bucket 0
  hist.observe(1.0);   // == 1       -> bucket 0 (inclusive)
  hist.observe(5.0);   // (1, 10]    -> bucket 1
  hist.observe(100.0); // > 10       -> +inf bucket
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 106.5);
  MetricsSnapshot snap = Registry::instance().snapshot();
  const HistogramSnapshot* found = nullptr;
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == "test.hist") {
      found = &h;
    }
  }
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->bucket_counts.size(), 3u);
  EXPECT_EQ(found->bucket_counts[0], 2u);
  EXPECT_EQ(found->bucket_counts[1], 1u);
  EXPECT_EQ(found->bucket_counts[2], 1u);
}

TEST_F(ObsTest, HandlesAreStableAcrossLookupsAndResets) {
  Counter& first = obs::counter("test.stable");
  Counter& second = obs::counter("test.stable");
  EXPECT_EQ(&first, &second);
  // Re-registering a histogram ignores the new bounds.
  Histogram& h1 = obs::histogram("test.stable_hist", {1.0, 2.0});
  Histogram& h2 = obs::histogram("test.stable_hist", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
  set_enabled(true);
  first.inc();
  Registry::instance().reset_values();
  EXPECT_EQ(first.value(), 0u);
  first.inc();  // handle still valid after reset
  EXPECT_EQ(first.value(), 1u);
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  set_enabled(true);
  obs::counter("test.zz").inc();
  obs::counter("test.aa").inc();
  MetricsSnapshot snap = Registry::instance().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST_F(ObsTest, ConcurrentCountersLoseNothing) {
  set_enabled(true);
  Counter& counter = obs::counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  SpanRing& ring = Tracer::instance().ring_for_this_thread();
  std::size_t before = ring.drain_copy().size();
  { ScopedSpan span("invisible", "test"); }
  EXPECT_EQ(ring.drain_copy().size(), before);
}

TEST_F(ObsTest, SpanRingOverflowOverwritesOldestAndCounts) {
  SpanRing ring(3);
  for (int i = 0; i < 5; ++i) {
    SpanRecord record;
    record.name = "span" + std::to_string(i);
    record.category = "test";
    record.start_us = static_cast<std::uint64_t>(i);
    record.dur_us = 1;
    record.depth = 0;
    ring.push(std::move(record));
  }
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<SpanRecord> records = ring.drain_copy();
  ASSERT_EQ(records.size(), 3u);
  // Oldest surviving first: spans 0 and 1 were overwritten.
  EXPECT_EQ(records[0].name, "span2");
  EXPECT_EQ(records[1].name, "span3");
  EXPECT_EQ(records[2].name, "span4");
}

TEST_F(ObsTest, NestedSpansRecordDepthAndOrder) {
  set_enabled(true);
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  std::vector<SpanRecord> records =
      Tracer::instance().ring_for_this_thread().drain_copy();
  ASSERT_EQ(records.size(), 2u);
  // Inner closes first, so it lands first in the ring.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_LE(records[1].start_us, records[0].start_us);
  EXPECT_GE(records[1].start_us + records[1].dur_us,
            records[0].start_us + records[0].dur_us);
}

TEST_F(ObsTest, ThreadsGetDistinctRingsAndNames) {
  set_enabled(true);
  std::uint32_t main_tid = Tracer::instance().ring_for_this_thread().tid();
  std::uint32_t other_tid = 0;
  std::thread worker([&other_tid] {
    Tracer::instance().set_thread_name("test-worker");
    SpanRing& ring = Tracer::instance().ring_for_this_thread();
    other_tid = ring.tid();
    EXPECT_EQ(ring.thread_name(), "test-worker");
  });
  worker.join();
  EXPECT_NE(main_tid, 0u);
  EXPECT_NE(other_tid, 0u);
  EXPECT_NE(main_tid, other_tid);
}

harness::TestCase small_case(const std::string& name) {
  harness::TestCase test;
  test.name = name;
  test.source =
      "kernel " + name + "(int a[8], int b[8], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { b[i] = a[i] + a[i]; }\n"
      "}\n";
  test.scalar_args = {{"n", 8}};
  test.inputs = {{"a", {1, 2, 3, 4, 5, 6, 7, 8}}};
  test.check_arrays = {"b"};
  return test;
}

/// Full stack: a 2-job suite run must leave a schema-valid Chrome trace
/// containing spans from the engine, thread-pool and suite layers.
TEST_F(ObsTest, ChromeTraceFromParallelSuiteIsSchemaValid) {
  set_enabled(true);
  harness::TestSuite suite;
  suite.add(small_case("alpha"));
  suite.add(small_case("beta"));
  harness::SuiteReport report = suite.run_all({}, nullptr, 2);
  ASSERT_TRUE(report.all_passed());

  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  util::JsonValue doc = util::parse_json(out.str());

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const util::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.items.empty());

  std::set<std::string> categories;
  bool saw_thread_name = false;
  for (const util::JsonValue& event : events.items) {
    const std::string& ph = event.at("ph").as_string();
    event.at("pid").as_u64();
    EXPECT_GT(event.at("tid").as_u64(), 0u);
    if (ph == "M") {
      EXPECT_EQ(event.at("name").as_string(), "thread_name");
      EXPECT_FALSE(event.at("args").at("name").as_string().empty());
      saw_thread_name = true;
      continue;
    }
    ASSERT_EQ(ph, "X") << "only complete + metadata events are emitted";
    EXPECT_FALSE(event.at("name").as_string().empty());
    categories.insert(event.at("cat").as_string());
    event.at("ts").as_u64();
    event.at("dur").as_u64();
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(categories.count("engine")) << "engine partition spans";
  EXPECT_TRUE(categories.count("pool")) << "worker/task spans";
  EXPECT_TRUE(categories.count("suite")) << "per-test spans";

  // "X" events must be sorted by start time.
  std::uint64_t last_ts = 0;
  for (const util::JsonValue& event : events.items) {
    if (event.at("ph").as_string() != "X") {
      continue;
    }
    std::uint64_t ts = event.at("ts").as_u64();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }

  // The same run must have counted engine + pool + suite work.
  MetricsSnapshot snap = Registry::instance().snapshot();
  auto counter_value = [&snap](const std::string& name) -> std::uint64_t {
    for (const CounterSnapshot& c : snap.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    return 0;
  };
  EXPECT_GE(counter_value("engine.partitions"), 2u);
  EXPECT_GT(counter_value("engine.events_popped"), 0u);
  EXPECT_EQ(counter_value("suite.tests"), 2u);
  EXPECT_EQ(counter_value("suite.passed"), 2u);
  EXPECT_EQ(counter_value("pool.tasks"), 2u);
}

TEST_F(ObsTest, MetricsJsonRoundTripsThroughTheReader) {
  set_enabled(true);
  obs::counter("rt.counter").add(3);
  obs::gauge("rt.gauge").set(2.5);
  Histogram& hist = obs::histogram("rt.hist", {10.0});
  hist.observe(5.0);
  hist.observe(20.0);

  util::JsonReport report =
      metrics_report(Registry::instance().snapshot(), "unit");
  util::JsonValue doc = util::parse_json(report.to_string());
  EXPECT_EQ(doc.at("snapshot").as_string(), "unit");
  const util::JsonValue& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.is_array());

  auto find = [&metrics](const std::string& name) -> const util::JsonValue* {
    for (const util::JsonValue& item : metrics.items) {
      if (item.at("name").as_string() == name) {
        return &item;
      }
    }
    return nullptr;
  };
  const util::JsonValue* counter = find("rt.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->at("type").as_string(), "counter");
  EXPECT_EQ(counter->at("value").as_u64(), 3u);

  const util::JsonValue* gauge = find("rt.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->at("value").as_number(), 2.5);

  const util::JsonValue* hist_item = find("rt.hist");
  ASSERT_NE(hist_item, nullptr);
  EXPECT_EQ(hist_item->at("count").as_u64(), 2u);
  EXPECT_DOUBLE_EQ(hist_item->at("sum").as_number(), 25.0);
  EXPECT_EQ(hist_item->at("le_10").as_u64(), 1u);
  EXPECT_EQ(hist_item->at("le_inf").as_u64(), 1u);
}

}  // namespace
}  // namespace fti::obs
