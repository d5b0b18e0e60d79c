// Metrics registry — named counters, gauges, and log₂-bucket latency
// histograms for the validation serving stack.
//
// Design constraints (ISSUE 3 tentpole):
//   * Recording is lock-free: one relaxed atomic add per Counter::Add,
//     two per Histogram::Record (bucket + sum) plus a CAS max loop that
//     almost always exits on the first load. No strings, no maps, no
//     allocation on the record path.
//   * Metric OBJECTS are created once, on a cold path, through
//     MetricsRegistry::{counter,gauge,histogram} — a name + label lookup
//     under a shared_mutex. Callers cache the returned pointer; pointers
//     stay valid for the registry's lifetime (metrics are never removed).
//   * Labels carry the two dimensions the paper's serving story needs:
//     operation (validate / cast / cast_stream / cast_with_mods /
//     edit_stream, one per booking entry point of ValidationService)
//     and the (S, S') schema-pair key.
//   * Quantiles (p50/p90/p99) are DERIVED at snapshot time from the
//     log₂ bucket counts — nothing is sorted or sampled on the hot path.
//   * A process-wide runtime switch (SetEnabled, read with one relaxed
//     load) turns histogram recording off; plain counters always count —
//     they are part of the service's API contract (ValidationService::
//     Counters, RelationsCache::Stats) and cost one relaxed add.
//   * Compile-time escape hatch: building with -DXMLREVAL_OBS_DISABLED
//     turns Histogram::Record and the gauge/trace paths into empty
//     inlines so the validators' instrumented hot paths carry zero code.
//
// Rendering: MetricsSnapshot serializes to Prometheus text exposition
// format and to JSON (the latter is what `xmlreval stats` and
// tools/smoke/obs.sh read back).

#ifndef XMLREVAL_OBS_METRICS_H_
#define XMLREVAL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace xmlreval::obs {

/// Process-wide runtime switch for histogram/gauge/trace recording.
/// Defaults to enabled; benchmarks measuring the uninstrumented hot path
/// call SetEnabled(false). One relaxed load per check.
bool Enabled();
void SetEnabled(bool enabled);

/// One label dimension: ordered (key, value) pairs, e.g.
/// {{"op", "cast"}, {"pair", "po.v1->po.v2"}}. Canonicalized (sorted by
/// key) when a metric is created, so label order at call sites is free.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  /// Monotonic add; always compiled in, always counts (see header).
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) {
#ifndef XMLREVAL_OBS_DISABLED
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(int64_t n = 1) {
#ifndef XMLREVAL_OBS_DISABLED
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Sub(int64_t n = 1) { Add(-n); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// A concrete request pinned to the histogram bucket its latency landed
/// in — p99 becomes clickable: the trace_id resolves to a full trace in
/// the TraceSink (kept there by tail sampling for exactly these requests).
struct Exemplar {
  uint64_t trace_id = 0;
  uint64_t value = 0;  // the recorded observation (latency, µs)
  uint64_t node_count = 0;
  std::string pair;           // schema-pair label, e.g. "po.v1->po.v2"
  const char* verdict = "";   // string literal: valid/invalid/error
};

/// Fixed-bucket log₂ histogram. Bucket i counts values whose bit width is
/// i (bucket 0: value == 0), i.e. values in [2^(i-1), 2^i - 1]; the last
/// bucket absorbs everything wider. Suited to latencies in microseconds:
/// 40 buckets cover 0 .. ~2^39 us (~6 days) at ≤ 2x resolution.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  /// Upper bound (inclusive) of bucket i: 0, 1, 3, 7, ..., 2^i - 1.
  static uint64_t BucketBound(size_t i) {
    return i == 0 ? 0 : (i >= 64 ? ~uint64_t{0} : (uint64_t{1} << i) - 1);
  }

  static size_t BucketIndex(uint64_t value) {
    size_t width = value == 0 ? 0 : static_cast<size_t>(64 - __builtin_clzll(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// Lock-free record: one relaxed add to the bucket, one to the running
  /// sum, and a relaxed CAS loop for the max (rarely more than one step).
  /// Gated on the runtime switch; compiled out under XMLREVAL_OBS_DISABLED.
  void Record(uint64_t value) {
#ifndef XMLREVAL_OBS_DISABLED
    if (!Enabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
#else
    (void)value;
#endif
  }

  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// True when `value` lands in the top two occupied log₂ buckets of the
  /// distribution seen so far (bucket of value + 1 ≥ bucket of max) —
  /// the tail-sampling keep criterion. Cheap: one relaxed load + two clz.
  bool IsTailValue(uint64_t value) const {
    return BucketIndex(value) + 1 >= BucketIndex(Max());
  }

  /// Pins `exemplar` to the bucket `value` falls in (latest wins; cold
  /// path, per-histogram mutex). Call only for requests whose trace was
  /// KEPT, so the trace_id is resolvable.
  void RecordExemplar(uint64_t value, Exemplar exemplar);

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};

  // Exemplar slots, one per bucket, filled lazily (cold path only).
  mutable std::mutex exemplar_mutex_;
  std::unordered_map<size_t, Exemplar> exemplars_;
};

// ---------------------------------------------------------------- snapshot

struct CounterSnapshot {
  std::string name;
  Labels labels;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::array<uint64_t, Histogram::kBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  /// (bucket index, exemplar) sorted by bucket; JSON export only.
  std::vector<std::pair<size_t, Exemplar>> exemplars;

  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
  /// Quantile estimate (q in [0, 1]), linearly interpolated inside the
  /// log₂ bucket that crosses the target rank.
  double Quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// First entry matching name (+ label subset), or nullptr.
  const CounterSnapshot* FindCounter(std::string_view name,
                                     const Labels& labels = {}) const;
  const GaugeSnapshot* FindGauge(std::string_view name,
                                 const Labels& labels = {}) const;
  const HistogramSnapshot* FindHistogram(std::string_view name,
                                         const Labels& labels = {}) const;

  /// Prometheus text exposition format (counters as *_total families,
  /// histograms with cumulative le="..." buckets, +Inf, _sum, _count).
  std::string ToPrometheusText() const;
  /// JSON rendering, readable back via common/json (see `xmlreval stats`).
  std::string ToJson() const;
};

// ---------------------------------------------------------------- registry

/// A set of named metrics with one consistent snapshot path. Instantiable
/// so each ValidationService (and each test) gets an isolated namespace;
/// Default() is the process-wide registry for code without a service.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Default();

  /// Find-or-create; the same (name, labels) always returns the same
  /// pointer, valid for the registry's lifetime. Cold path (shared-lock
  /// probe, exclusive insert on first use) — cache the pointer.
  Counter* counter(std::string_view name, const Labels& labels = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {});
  Histogram* histogram(std::string_view name, const Labels& labels = {});

  /// Registers a callback run at the START of every Snapshot(), before
  /// values are read — the hook where owners publish derived state
  /// (queue-depth high-water marks, trace-sink health gauges) so each
  /// exposition interval sees it fresh. Callbacks must not call
  /// Snapshot() and never unregister (registry-lifetime).
  void OnSnapshot(std::function<void()> callback);

  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  T* FindOrCreate(std::unordered_map<std::string, std::unique_ptr<T>>& map,
                  std::string_view name, const Labels& labels);

  struct Meta {
    std::string name;
    Labels labels;
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<const void*, Meta> meta_;

  mutable std::mutex callbacks_mutex_;
  std::vector<std::function<void()>> snapshot_callbacks_;
};

}  // namespace xmlreval::obs

#endif  // XMLREVAL_OBS_METRICS_H_
