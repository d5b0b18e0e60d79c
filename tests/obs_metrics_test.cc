// obs/metrics: bucket math, quantile derivation, registry identity,
// snapshot rendering (Prometheus + JSON round-trip through common/json),
// the runtime switch, and a concurrent record/snapshot hammer (the TSan CI
// job runs this file under -fsanitize=thread).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/json.h"

// Some tests assert that instrumentation actually records samples; with
// the compile-time escape hatch active there is nothing to observe.
#ifdef XMLREVAL_OBS_DISABLED
#define SKIP_IF_OBS_COMPILED_OUT() \
  GTEST_SKIP() << "instrumentation compiled out (XMLREVAL_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_COMPILED_OUT() (void)0
#endif


namespace xmlreval::obs {
namespace {

class ObsEnabledGuard {
 public:
  ObsEnabledGuard() { SetEnabled(true); }
  ~ObsEnabledGuard() { SetEnabled(true); }
};

TEST(HistogramBucketTest, IndexMatchesBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Everything wider than the last bucket's bound collapses into it.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(HistogramBucketTest, BoundsArePowerOfTwoMinusOne) {
  EXPECT_EQ(Histogram::BucketBound(0), 0u);
  EXPECT_EQ(Histogram::BucketBound(1), 1u);
  EXPECT_EQ(Histogram::BucketBound(2), 3u);
  EXPECT_EQ(Histogram::BucketBound(10), 1023u);
  // Every value lands in a bucket whose bound is >= the value and whose
  // predecessor's bound is < the value: the defining invariant.
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{5}, uint64_t{100},
                     uint64_t{65536}, uint64_t{1} << 38}) {
    size_t i = Histogram::BucketIndex(v);
    EXPECT_GE(Histogram::BucketBound(i), v) << v;
    if (i > 0) {
      EXPECT_LT(Histogram::BucketBound(i - 1), v) << v;
    }
  }
}

TEST(MetricsRegistryTest, SameNameAndLabelsSharePointer) {
  MetricsRegistry registry;
  Counter* a = registry.counter("requests");
  Counter* b = registry.counter("requests");
  EXPECT_EQ(a, b);
  // Label order is canonicalized: these are the same metric.
  Counter* c1 =
      registry.counter("lat", {{"op", "cast"}, {"pair", "a->b"}});
  Counter* c2 =
      registry.counter("lat", {{"pair", "a->b"}, {"op", "cast"}});
  EXPECT_EQ(c1, c2);
  // Different labels are a different metric.
  EXPECT_NE(c1, registry.counter("lat", {{"op", "validate"}}));
  // Registries are isolated namespaces.
  MetricsRegistry other;
  EXPECT_NE(a, other.counter("requests"));
}

TEST(MetricsRegistryTest, SnapshotReflectsRecordedValues) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  registry.counter("hits")->Add(3);
  registry.gauge("inflight")->Set(-2);
  Histogram* hist = registry.histogram("lat", {{"op", "cast"}});
  hist->Record(0);
  hist->Record(5);
  hist->Record(100);

  MetricsSnapshot snapshot = registry.Snapshot();
  const CounterSnapshot* hits = snapshot.FindCounter("hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -2);
  const HistogramSnapshot* lat =
      snapshot.FindHistogram("lat", {{"op", "cast"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_EQ(lat->sum, 105u);
  EXPECT_EQ(lat->max, 100u);
  EXPECT_DOUBLE_EQ(lat->Mean(), 35.0);
  // Count is derived from the buckets — single source of truth.
  uint64_t bucket_total = 0;
  for (uint64_t b : lat->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, lat->count);
}

TEST(MetricsRegistryTest, QuantilesInterpolateAndClampToMax) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("lat");
  // 100 samples of value 10 (bucket 4, range [8, 15]).
  for (int i = 0; i < 100; ++i) hist->Record(10);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* lat = snapshot.FindHistogram("lat");
  ASSERT_NE(lat, nullptr);
  // Any quantile must fall inside the only occupied bucket, and never
  // above the observed max.
  for (double q : {0.5, 0.9, 0.99}) {
    double v = lat->Quantile(q);
    EXPECT_GE(v, 7.0) << q;
    EXPECT_LE(v, 10.0) << q;  // clamped to max, not the bucket bound (15)
  }
  EXPECT_EQ(lat->Quantile(1.0), 10.0);
}

TEST(MetricsRegistryTest, RuntimeSwitchGatesHistogramsNotCounters) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  Counter* counter = registry.counter("always");
  Histogram* hist = registry.histogram("gated");
  SetEnabled(false);
  counter->Add();
  hist->Record(42);
  SetEnabled(true);
  EXPECT_EQ(counter->Value(), 1u);  // counters are API contract
  EXPECT_EQ(hist->Count(), 0u);     // histograms pause
  hist->Record(42);
  EXPECT_EQ(hist->Count(), 1u);
}

TEST(MetricsSnapshotTest, PrometheusTextHasFamiliesAndCumulativeBuckets) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  registry.counter("xmlreval_requests_total", {{"op", "cast"}})->Add(7);
  Histogram* hist = registry.histogram("xmlreval_latency_us");
  hist->Record(1);
  hist->Record(3);
  std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE xmlreval_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xmlreval_requests_total{op=\"cast\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xmlreval_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" sees 1 sample, le="3" both, +Inf == count.
  EXPECT_NE(text.find("xmlreval_latency_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xmlreval_latency_us_bucket{le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("xmlreval_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("xmlreval_latency_us_sum 4"), std::string::npos);
  EXPECT_NE(text.find("xmlreval_latency_us_count 2"), std::string::npos);
}

TEST(MetricsSnapshotTest, JsonRoundTripsThroughCommonJson) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  registry.counter("c", {{"k", "v\"quoted\""}})->Add(9);
  Histogram* hist = registry.histogram("h");
  for (int i = 0; i < 10; ++i) hist->Record(100);
  auto parsed = json::Parse(registry.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->AsArray().size(), 1u);
  const json::Value& c = counters->AsArray()[0];
  EXPECT_EQ(c.Find("name")->AsString(), "c");
  EXPECT_EQ(c.Find("labels")->AsObject().at("k").AsString(), "v\"quoted\"");
  EXPECT_EQ(c.Find("value")->AsNumber(), 9.0);

  const json::Value* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_EQ(histograms->AsArray().size(), 1u);
  const json::Value& h = histograms->AsArray()[0];
  EXPECT_EQ(h.Find("count")->AsNumber(), 10.0);
  EXPECT_EQ(h.Find("sum")->AsNumber(), 1000.0);
  EXPECT_EQ(h.Find("max")->AsNumber(), 100.0);
  EXPECT_GT(h.Find("p99")->AsNumber(), 0.0);
  // Sparse buckets: one [bound, count] pair.
  const json::Value* buckets = h.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->AsArray().size(), 1u);
  EXPECT_EQ(buckets->AsArray()[0].AsArray()[1].AsNumber(), 10.0);
}

// Concurrency hammer: writers record into one histogram + counter while a
// reader snapshots continuously. Run under TSan this proves the record
// path and Snapshot() are race-free; the final totals prove no update is
// lost.
TEST(MetricsConcurrencyTest, ConcurrentRecordAndSnapshot) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  MetricsRegistry registry;
  Counter* counter = registry.counter("hammer_total");
  Histogram* hist = registry.histogram("hammer_us");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = registry.Snapshot();
      const HistogramSnapshot* h = snapshot.FindHistogram("hammer_us");
      ASSERT_NE(h, nullptr);
      // Monotone consistency: counts never exceed the final total.
      ASSERT_LE(h->count, uint64_t{kWriters} * kPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter->Add();
        hist->Record(static_cast<uint64_t>((w * 31 + i) % 5000));
        // Registry lookups from workers race against Snapshot too.
        if (i % 1024 == 0) registry.counter("hammer_total");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter->Value(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(hist->Count(), uint64_t{kWriters} * kPerWriter);
  MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(final_snapshot.FindHistogram("hammer_us")->count,
            uint64_t{kWriters} * kPerWriter);
}

}  // namespace
}  // namespace xmlreval::obs
