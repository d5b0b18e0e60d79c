#include "core/parallel_cast_validator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/cast_walk.h"
#include "obs/trace.h"

namespace xmlreval::core {

namespace {

// Adaptive spawn-threshold calibration (Options::spawn_threshold == 0).
// A donated half-frontier should amortise one task dispatch (enqueue +
// wake-up + counter merge, low tens of µs on a loaded pool), so the
// threshold targets kTargetDonationNs of measured serial work per slice.
constexpr size_t kCalibrationUnits = 512;
constexpr uint64_t kTargetDonationNs = 32 * 1000;
constexpr size_t kMinSpawnThreshold = 16;
constexpr size_t kMaxSpawnThreshold = 4096;
constexpr size_t kFallbackSpawnThreshold = 64;

// Times a serial prefix walk of `doc` (at most kCalibrationUnits frontier
// units) and converts ns/unit into a donation threshold. The walk's
// counters and any failure it trips are discarded — the real run
// rediscovers them — so calibration never perturbs the report. Documents
// too small (or clocks too coarse) to measure fall back to the historical
// fixed default.
size_t CalibrateSpawnThreshold(const TypeRelations& rel,
                               const xml::Document& doc, bool use_symbols,
                               bool use_immediate) {
  ValidationReport scratch;
  CastUnit root;
  if (!internal::ResolveRootUnit(rel, doc, use_symbols, &scratch, &root)) {
    return kFallbackSpawnThreshold;
  }
  internal::CastWalk walk(rel, doc, use_immediate, use_symbols);
  walk.prune_subsumed_at_push = true;
  std::string simple_value;
  walk.simple_value = &simple_value;
  std::vector<CastUnit> stack{root};
  size_t processed = 0;
  const auto start = std::chrono::steady_clock::now();
  while (!stack.empty() && processed < kCalibrationUnits) {
    CastUnit unit = stack.back();
    stack.pop_back();
    if (!walk.ProcessUnit(unit, &stack)) break;
    ++processed;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (processed < kMinSpawnThreshold || elapsed <= 0) {
    return kFallbackSpawnThreshold;
  }
  const double ns_per_unit =
      static_cast<double>(elapsed) / static_cast<double>(processed);
  const auto target =
      static_cast<size_t>(static_cast<double>(kTargetDonationNs) / ns_per_unit);
  return std::clamp(target, kMinSpawnThreshold, kMaxSpawnThreshold);
}

// State shared by every task of one Validate call. Owned via shared_ptr:
// the last finishing task (or the waiting caller) releases it.
struct SharedRun {
  SharedRun(const TypeRelations* relations, const xml::Document* document,
            common::Executor* exec, bool symbols, bool immediate,
            size_t threshold)
      : rel(relations),
        doc(document),
        executor(exec),
        group(exec),
        use_symbols(symbols),
        use_immediate(immediate),
        spawn_threshold(threshold) {}

  const TypeRelations* rel;
  const xml::Document* doc;
  common::Executor* executor;
  common::TaskGroup group;
  const bool use_symbols;
  const bool use_immediate;
  const size_t spawn_threshold;

  // First-failure cell, keyed by the failing UNIT's document-order Dewey
  // path. Monotone: only an earlier unit may replace the current record,
  // so a later-sibling failure never shadows an earlier one.
  std::atomic<bool> abort{false};
  std::mutex fail_mutex;
  bool failed = false;                // guarded by fail_mutex
  xml::DeweyPath min_unit_path;       // guarded by fail_mutex
  xml::DeweyPath fail_path;           // guarded by fail_mutex
  std::string fail_message;           // guarded by fail_mutex

  std::mutex merge_mutex;
  ValidationCounters counters;        // guarded by merge_mutex
  std::atomic<uint64_t> tasks{0};

  // Failure-path Dewey ordinals, memoized per run. DeweyPath::Of walks the
  // prev-sibling chain for every component (O(position among siblings));
  // when thousands of sibling units fail — or get cancellation-checked —
  // that turns the drain quadratic. One forward walk per sibling chain
  // fills the cache for every sibling at once, so path construction costs
  // O(nodes) amortised across the whole run.
  std::mutex ordinal_mutex;
  std::unordered_map<xml::NodeId, uint32_t> ordinals;  // guarded by ordinal_mutex

  xml::DeweyPath PathOf(xml::NodeId node) {
    std::vector<uint32_t> components;
    std::lock_guard lock(ordinal_mutex);
    for (xml::NodeId cur = node; doc->parent(cur) != xml::kInvalidNode;
         cur = doc->parent(cur)) {
      components.push_back(OrdinalLocked(cur));
    }
    std::reverse(components.begin(), components.end());
    return xml::DeweyPath(std::move(components));
  }

  // Requires ordinal_mutex held.
  uint32_t OrdinalLocked(xml::NodeId node) {
    auto it = ordinals.find(node);
    if (it != ordinals.end()) return it->second;
    uint32_t result = 0;
    uint32_t index = 0;
    for (xml::NodeId s = doc->first_child(doc->parent(node));
         s != xml::kInvalidNode; s = doc->next_sibling(s), ++index) {
      ordinals.emplace(s, index);
      if (s == node) result = index;
    }
    return result;
  }

  void RecordFailure(xml::NodeId unit_node, xml::NodeId fail_node,
                     std::string message) {
    xml::DeweyPath unit_path = PathOf(unit_node);
    xml::DeweyPath node_path = PathOf(fail_node);
    {
      std::lock_guard lock(fail_mutex);
      if (!failed || unit_path < min_unit_path) {
        failed = true;
        min_unit_path = std::move(unit_path);
        fail_path = std::move(node_path);
        fail_message = std::move(message);
      }
    }
    abort.store(true, std::memory_order_release);
  }

  /// True when `unit_node` lies strictly AFTER the recorded first failure
  /// in document order — such units cannot contain an earlier failure and
  /// may be dropped. Units at or before the minimum must still run. Only
  /// consulted once the abort flag is up (failure paths are cold).
  bool Cancelled(xml::NodeId unit_node) {
    if (!abort.load(std::memory_order_acquire)) return false;
    xml::DeweyPath unit_path = PathOf(unit_node);
    std::lock_guard lock(fail_mutex);
    return failed && min_unit_path < unit_path;
  }
};

void RunTask(const std::shared_ptr<SharedRun>& run,
             std::vector<CastUnit> stack) {
  // Per-task span under whatever the worker is nested in; args carry this
  // task's slice of the traversal counters.
  obs::Span span("cast.task");
  run->tasks.fetch_add(1, std::memory_order_relaxed);
  internal::CastWalk walk(*run->rel, *run->doc, run->use_immediate,
                          run->use_symbols);
  walk.prune_subsumed_at_push = true;
  std::string simple_value;
  walk.simple_value = &simple_value;

  // Invariant: `stack` is sorted by document order, top (back) earliest;
  // a pop expands the earliest pending unit, whose children land on top —
  // still earlier than every sibling below. Donating a bottom slice
  // therefore hands a thief the document-order-latest span, and both
  // halves keep the invariant.
  while (!stack.empty()) {
    CastUnit unit = stack.back();
    stack.pop_back();
    if (!stack.empty()) walk.hv.PrefetchRow(stack.back().node);
    if (run->Cancelled(unit.node)) continue;
    if (!walk.ProcessUnit(unit, &stack)) {
      run->RecordFailure(unit.node, walk.fail_node,
                         std::move(walk.fail_message));
      continue;  // earlier units may still hold an earlier failure
    }
    // Once a failure is recorded the remaining drain is cancellation
    // scans; donating halves would only multiply wake-ups and copies.
    if (!run->abort.load(std::memory_order_relaxed) &&
        stack.size() >= run->spawn_threshold &&
        run->executor->HasIdleWorker()) {
      const size_t half = stack.size() / 2;
      std::vector<CastUnit> donated(stack.begin(), stack.begin() + half);
      stack.erase(stack.begin(), stack.begin() + half);
      // The flow edge starts inside THIS cast.task span and terminates on
      // the donated task's cast.task span, wherever it gets stolen to.
      obs::TraceContext ctx = obs::ForkFlow("cast.flow");
      run->group.Spawn(
          [run, ctx, donated = std::move(donated)]() mutable {
            obs::ScopedTraceContext scoped(ctx);
            RunTask(run, std::move(donated));
          });
    }
  }
  AttachTraceArgs(span, walk.k.counters);
  std::lock_guard lock(run->merge_mutex);
  run->counters += walk.k.counters;
}

}  // namespace

ParallelCastValidator::ParallelCastValidator(const TypeRelations* relations,
                                             common::Executor* executor,
                                             const Options& options)
    : relations_(relations), executor_(executor), options_(options) {
  XMLREVAL_CHECK(relations != nullptr,
                 "ParallelCastValidator requires relations");
  XMLREVAL_CHECK(executor != nullptr,
                 "ParallelCastValidator requires an executor");
}

size_t ParallelCastValidator::EffectiveThreshold(const xml::Document& doc,
                                                 bool use_symbols) const {
  if (options_.spawn_threshold != 0) return options_.spawn_threshold;
  size_t cached = calibrated_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  size_t calibrated = CalibrateSpawnThreshold(
      *relations_, doc, use_symbols, options_.cast.use_immediate_content);
  calibrated_.store(calibrated, std::memory_order_relaxed);
  return calibrated;
}

ValidationReport ParallelCastValidator::Validate(const xml::Document& doc,
                                                 RunStats* stats) const {
  // Adopts the service's request id when called through it; direct
  // callers (benches, tests) get their own, kept unconditionally.
  obs::RequestScope request_scope;
  obs::Span span("cast.traverse");
  const bool use_symbols = doc.BoundTo(*relations_->source().alphabet());
  ValidationReport report;
  CastUnit root;
  if (!internal::ResolveRootUnit(*relations_, doc, use_symbols, &report,
                                 &root)) {
    if (stats != nullptr) *stats = RunStats{};
    return report;
  }

  const size_t threshold = EffectiveThreshold(doc, use_symbols);
  auto run = std::make_shared<SharedRun>(relations_, &doc, executor_,
                                         use_symbols,
                                         options_.cast.use_immediate_content,
                                         threshold);
  obs::TraceContext root_ctx = obs::ForkFlow("cast.flow");
  run->group.Spawn([run, root, root_ctx] {
    obs::ScopedTraceContext scoped(root_ctx);
    RunTask(run, {root});
  });
  run->group.Wait();

  if (stats != nullptr) {
    stats->tasks = run->tasks.load(std::memory_order_relaxed);
    stats->spawn_threshold = threshold;
    stats->replayed = run->failed;
    stats->tracked_failure = run->failed;
    stats->tracked_unit_path = run->min_unit_path;
    stats->tracked_fail_path = run->fail_path;
    stats->tracked_message = run->fail_message;
  }
  if (run->failed) {
    // Counters up to the first failure cannot be reconstructed from
    // cancelled tasks, so the serial engine recomputes the whole report —
    // verdict, path, message, counters all bit-identical to CastValidator.
    // Bounded by the serial cost; failures are the cold path.
    report = CastValidator(relations_, options_.cast).Validate(doc);
  } else {
    report.counters = run->counters;
  }
  AttachTraceArgs(span, report.counters);
  return report;
}

}  // namespace xmlreval::core
