#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace vc {
namespace {

// Each test uses its own registry instance (not Global()) so tests do not
// see counters bumped by other suites in the same process.

TEST(CounterTest, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsFromThreadPool) {
  Counter counter;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 10'000;
  {
    ThreadPool pool(8);
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] {
        for (int j = 0; j < kAddsPerTask; ++j) counter.Add();
      }));
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(counter.Value(), uint64_t{kTasks} * kAddsPerTask);
}

TEST(GaugeTest, SetAndReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.25);
  EXPECT_EQ(gauge.Value(), 3.25);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // bucket 0 (<= 1.0)
  histogram.Observe(1.0);   // bucket 0 (boundary is inclusive)
  histogram.Observe(1.001); // bucket 1
  histogram.Observe(4.0);   // bucket 2
  histogram.Observe(99.0);  // overflow bucket
  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_NEAR(snapshot.sum, 0.5 + 1.0 + 1.001 + 4.0 + 99.0, 1e-12);
  EXPECT_NEAR(snapshot.Mean(), snapshot.sum / 5.0, 1e-12);
}

TEST(HistogramTest, PercentileReportsBucketBound) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 90; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(3.0);
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.Percentile(0.5), 1.0);
  EXPECT_EQ(snapshot.Percentile(0.95), 4.0);
  // Overflow observations clamp to the last finite bound.
  Histogram overflow({1.0});
  overflow.Observe(100.0);
  EXPECT_EQ(overflow.Snapshot().Percentile(1.0), 1.0);
}

TEST(RegistryTest, ReturnsStableHandles) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("x.lat", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("x.lat", {9.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, SnapshotAndResetSemantics) {
  MetricRegistry registry;
  registry.GetCounter("a.count")->Add(7);
  registry.GetGauge("a.gauge")->Set(2.5);
  registry.GetHistogram("a.lat", {1.0})->Observe(0.5);

  MetricsSnapshot before = registry.Snapshot();
  EXPECT_EQ(before.counters.at("a.count"), 7u);
  EXPECT_EQ(before.gauges.at("a.gauge"), 2.5);
  EXPECT_EQ(before.histograms.at("a.lat").count, 1u);

  registry.Reset();
  // Registrations (and handles) survive a reset; values drop to zero.
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("a.count"), 0u);
  EXPECT_EQ(after.gauges.at("a.gauge"), 0.0);
  EXPECT_EQ(after.histograms.at("a.lat").count, 0u);
  registry.GetCounter("a.count")->Add();
  EXPECT_EQ(registry.Snapshot().counters.at("a.count"), 1u);
}

TEST(RegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricRegistry registry;
  {
    ThreadPool pool(8);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.Submit([&registry, i] {
        registry.GetCounter("shared.count")->Add();
        registry.GetCounter("own." + std::to_string(i % 4))->Add();
        registry.GetHistogram("shared.lat")->Observe(1e-4);
      }));
    }
    pool.WaitIdle();
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("shared.count"), 64u);
  EXPECT_EQ(snapshot.histograms.at("shared.lat").count, 64u);
  uint64_t own_total = 0;
  for (int i = 0; i < 4; ++i) {
    own_total += snapshot.counters.at("own." + std::to_string(i));
  }
  EXPECT_EQ(own_total, 64u);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  Histogram histogram(DefaultLatencyBuckets());
  { ScopedTimer timer(&histogram); }
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_GE(snapshot.sum, 0.0);
  { ScopedTimer disabled(nullptr); }  // must not crash
}

TEST(ExportTest, JsonMatchesGoldenString) {
  // The metrics interchange format, byte for byte: keys in name order,
  // shortest round-trip numbers, and JSON specials in names escaped.
  MetricsSnapshot snapshot;
  snapshot.counters["net.transfers"] = 12;
  snapshot.counters["cache.hits"] = 3;
  snapshot.counters["odd\"name\\x"] = 1;
  snapshot.gauges["net.goodput_bps"] = 8.125e6;
  HistogramSnapshot& lat = snapshot.histograms["storage.read_seconds"];
  lat.bounds = {1e-3, 0.1};
  lat.counts = {1, 1, 1};
  lat.count = 3;
  lat.sum = 7.25;
  EXPECT_EQ(MetricsToJson(snapshot),
            "{\"counters\": {\"cache.hits\": 3, \"net.transfers\": 12, "
            "\"odd\\\"name\\\\x\": 1}, "
            "\"gauges\": {\"net.goodput_bps\": 8125000}, "
            "\"histograms\": {\"storage.read_seconds\": "
            "{\"bounds\": [0.001, 0.1], \"counts\": [1, 1, 1], "
            "\"count\": 3, \"sum\": 7.25}}}");
}

TEST(ExportTest, EmptySnapshotIsValidJson) {
  EXPECT_EQ(MetricsToJson(MetricsSnapshot{}),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
}

TEST(ExportTest, CsvHasHeaderAndRows) {
  MetricRegistry registry;
  registry.GetCounter("a.count")->Add(2);
  registry.GetGauge("b.gauge")->Set(1.5);
  registry.GetHistogram("c.lat", {1.0})->Observe(0.5);
  std::string csv = MetricsToCsv(registry.Snapshot());
  EXPECT_NE(csv.find("type,name,field,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.count,value,2\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b.gauge,value,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.lat,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.lat,p95,"), std::string::npos);
}

TEST(ExportTest, GlobalRegistrySnapshotSerializes) {
  // The process-wide registry (whatever other tests populated) must always
  // serialize to the three-section object with balanced brackets outside
  // its strings.
  std::string json = MetricsToJson(MetricRegistry::Global().Snapshot());
  ASSERT_EQ(json.rfind("{\"counters\": {", 0), 0u) << json;
  EXPECT_NE(json.find("}, \"gauges\": {"), std::string::npos);
  EXPECT_NE(json.find("}, \"histograms\": {"), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0) << "unbalanced at byte " << i;
      --depth;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace vc
