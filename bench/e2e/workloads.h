// The five bench_e2e workloads behind one interface.
//
// bench_e2e.cpp owns timing, set-up timing, tracing blocks and
// output; a Workload owns its inputs, their Definition-1 verdicts, and the
// calls one request makes into the public ValidationService API.

#ifndef XMLREVAL_BENCH_E2E_WORKLOADS_H_
#define XMLREVAL_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "inputs.h"
#include "service/validation_service.h"
#include "tracer.h"

namespace xmlreval::bench_e2e {

/// Prints `what` and exits 1 without a result line: a benchmark that cannot
/// build its inputs has nothing to report.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(1);
}

inline double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

using service::SchemaHandle;
using service::ValidationService;

/// One schema a workload registers: XSD text, or DTD text with its roots.
struct SchemaSpec {
  const char* key;
  const char* text;
  bool dtd = false;
  std::vector<std::string> roots = {};
};

/// What one request did: the items it carried (a batch carries many) and
/// how many of them failed — a non-OK status or a verdict that differs
/// from the oracle.
struct Outcome {
  uint64_t items = 1;
  uint64_t failed = 0;
};

/// Per-layer metric values by name; names missing here are reported as 0,
/// meaning the layer does no work in that workload.
using LayerValues = std::map<std::string, double>;

/// What bench_e2e.cpp measured that a workload's layer metrics divide by.
struct MeasuredWindow {
  const Tracer* tracer;
  /// Σ request latency over every measured request, traced or not.
  double request_ns = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from `seed` (untimed) and feeds its bytes to
  /// `digest`.
  virtual void Generate(uint64_t seed, Fnv1a* digest) = 0;

  virtual ValidationService::Options ServiceOptions() const { return {}; }
  virtual std::vector<SchemaSpec> Schemas() const = 0;
  /// Cast pairs as indices into Schemas(); set-up runs the first
  /// cache().Get of each.
  virtual std::vector<std::pair<size_t, size_t>> Pairs() const = 0;
  /// Whether set-up also compiles the first pair's update analyzer.
  virtual bool UsesAnalyzer() const { return false; }

  /// Adopts the serving service (`handles` follow Schemas()), builds any
  /// resident documents, and computes each input's expected verdict with
  /// core::FullValidator against the target schema (Definition 1). Exits
  /// the process if an input does not parse.
  virtual void Prepare(ValidationService* service,
                       std::vector<SchemaHandle> handles) = 0;

  /// Untimed per-request staging: a fresh parse, a batch's item copies,
  /// dropping the previous request's state.
  virtual void Stage(uint64_t /*request*/, Tracer* /*tracer*/) {}

  /// The timed request. `tracer` is non-null in traced blocks; layer
  /// statistics are gathered only then.
  virtual Outcome Run(uint64_t request, Tracer* tracer) = 0;

  /// Traced blocks only: bare-layer measurements of the same input, taken
  /// outside the request span so they never inflate request latency.
  virtual void Siblings(uint64_t /*request*/, Tracer* /*tracer*/) {}

  /// Called when the measured window starts (after warm-up).
  virtual void OnMeasureStart() {}

  /// Workload-specific per-layer metrics over the measured window.
  virtual void Layers(const MeasuredWindow& window, LayerValues* out) = 0;
};

inline constexpr const char* kWorkloadNames[] = {
    "po_cast_dom", "corpus_recast", "stream_cast", "edit_stream",
    "batch_mixed"};

/// The workload called `name`, or null.
std::unique_ptr<Workload> MakeWorkload(std::string_view name);

}  // namespace xmlreval::bench_e2e

#endif  // XMLREVAL_BENCH_E2E_WORKLOADS_H_
