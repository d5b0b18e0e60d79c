// Bench-side span recorder for the traced run of bench_e2e.
//
// The benchmark wraps each public call it makes into the library in a
// span: a name, start and end in steady-clock nanoseconds, the enclosing
// span, and the request id. Only the client thread — the one thread that
// calls into the service — records, so the recorder needs no locking. Spans
// are kept in memory up to a cap and written out at exit as Chrome
// trace-event JSON ("ph":"X" events with args.trace_id = request id), which
// Perfetto and `xmlreval trace-report` open. Per-name totals cover every
// span, including those past the cap, so self times — a span's duration
// minus the part its child spans cover — are exact for the whole run.

#ifndef XMLREVAL_BENCH_E2E_TRACER_H_
#define XMLREVAL_BENCH_E2E_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xmlreval::bench_e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit Tracer(size_t max_kept_spans) : max_kept_(max_kept_spans) {}

  /// Id stamped on the spans opened from now on (0 = outside any request).
  void set_request_id(uint64_t id) { request_id_ = id; }

  /// Opens a span; `name` must be a string literal.
  void Begin(const char* name) {
    uint32_t slot = kNoSpan;
    if (kept_.size() < max_kept_) {
      slot = static_cast<uint32_t>(kept_.size());
      kept_.push_back({name, 0, 0,
                       stack_.empty() ? kNoSpan : stack_.back().slot,
                       request_id_});
    }
    stack_.push_back(Open{name, slot, 0, NowNs()});
  }

  /// Closes the innermost open span and returns its duration.
  int64_t End() {
    const int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start_ns;
    Totals& totals = totals_[open.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.slot != kNoSpan) {
      kept_[open.slot].start_ns = open.start_ns;
      kept_[open.slot].end_ns = end;
    }
    return duration;
  }

  /// Totals of every span named `name` so far.
  Totals Get(std::string_view name) const {
    Totals sum;
    for (const auto& [key, totals] : totals_) {
      if (name != key) continue;
      sum.count += totals.count;
      sum.total_ns += totals.total_ns;
      sum.self_ns += totals.self_ns;
    }
    return sum;
  }

  /// Chrome trace-event JSON of the kept spans, timestamps in µs from the
  /// first span.
  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
    char buffer[256];
    bool first = true;
    for (size_t i = 0; i < kept_.size(); ++i) {
      const SpanRecord& s = kept_[i];
      if (s.end_ns == 0) continue;  // still open at export
      std::snprintf(buffer, sizeof(buffer),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
                    "\"span_id\":%zu,\"parent_id\":%lld}}",
                    first ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.request_id), i,
                    s.parent == kNoSpan ? -1LL
                                        : static_cast<long long>(s.parent));
      out += buffer;
      first = false;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;  // 0 while open
    uint32_t parent;  // index into kept_, or kNoSpan
    uint64_t request_id;
  };
  struct Open {
    const char* name;
    uint32_t slot;
    int64_t child_ns;
    int64_t start_ns;
  };

  size_t max_kept_;
  uint64_t request_id_ = 0;
  std::vector<Open> stack_;
  std::vector<SpanRecord> kept_;
  // Keyed by the literal's address (cheap on the record path); Get() merges
  // entries whose text is equal.
  std::unordered_map<const char*, Totals> totals_;
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its duration (0 when untraced or closed).
  int64_t Close() {
    if (tracer_ == nullptr) return 0;
    Tracer* tracer = tracer_;
    tracer_ = nullptr;
    return tracer->End();
  }

 private:
  Tracer* tracer_;
};

}  // namespace xmlreval::bench_e2e

#endif  // XMLREVAL_BENCH_E2E_TRACER_H_
