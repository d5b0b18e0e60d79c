// Causal tracing across the work-stealing fan-out: on a ≥4-thread
// parallel cast, EVERY cast.task span must be reachable from the request
// via Chrome flow events — each task's 'f' (flow finish) binds inside the
// task's span, shares its id with exactly one 's' (flow start) emitted by
// the spawner, and carries the request's trace_id. Plus the tail-sampling
// contract on the sink: staged events only surface for kept traces.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/json.h"
#include "core/parallel_cast_validator.h"
#include "core/relations.h"
#include "obs/trace.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"
#include "xml/tree.h"

#ifdef XMLREVAL_OBS_DISABLED
#define SKIP_IF_OBS_COMPILED_OUT() \
  GTEST_SKIP() << "instrumentation compiled out (XMLREVAL_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_COMPILED_OUT() (void)0
#endif

namespace xmlreval::obs {
namespace {

// Executor options with only the worker count set.
common::Executor::Options Threads(size_t n) {
  common::Executor::Options options;
  options.threads = n;
  return options;
}

class TraceGuard {
 public:
  TraceGuard() {
    TraceSink::Global().Clear();
    SetTraceEnabled(true);
  }
  ~TraceGuard() {
    SetTraceEnabled(false);
    TraceSink::Global().SetTailSampling(false);
    TraceSink::Global().Clear();
  }
};

// One exported Chrome trace event, decoded just enough for flow checks.
struct DecodedEvent {
  std::string name;
  std::string ph;
  uint64_t ts = 0;
  uint64_t dur = 0;
  uint64_t tid = 0;
  uint64_t id = 0;        // flow events only
  uint64_t trace_id = 0;  // args.trace_id
};

std::vector<DecodedEvent> DecodeExport() {
  auto parsed = json::Parse(TraceSink::Global().ExportChromeJson());
  EXPECT_TRUE(parsed.ok());
  std::vector<DecodedEvent> out;
  const json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const json::Value& e : events->AsArray()) {
    DecodedEvent d;
    d.name = e.Find("name")->AsString();
    d.ph = e.Find("ph")->AsString();
    d.ts = static_cast<uint64_t>(e.Find("ts")->AsNumber());
    if (const json::Value* v = e.Find("dur"); v != nullptr) {
      d.dur = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* v = e.Find("tid"); v != nullptr) {
      d.tid = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* v = e.Find("id"); v != nullptr) {
      d.id = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* args = e.Find("args"); args != nullptr) {
      if (const json::Value* v = args->Find("trace_id"); v != nullptr) {
        d.trace_id = static_cast<uint64_t>(v->AsNumber());
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

TEST(ObsCausalTest, EveryStolenCastTaskIsFlowLinkedToItsSpawner) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;

  auto alphabet = std::make_shared<schema::Alphabet>();
  auto src = schema::ParseXsd(workload::kRelaxedQuantityXsd, alphabet);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto tgt = schema::ParseXsd(workload::kTargetXsd, alphabet);
  ASSERT_TRUE(tgt.ok()) << tgt.status().ToString();
  core::Schema source = std::move(src).value();
  core::Schema target = std::move(tgt).value();
  ASSERT_OK_AND_ASSIGN(core::TypeRelations relations,
                       core::TypeRelations::Compute(&source, &target));

  workload::PoGeneratorOptions po;
  po.item_count = 1000;
  xml::Document doc = workload::GeneratePurchaseOrder(po);
  ASSERT_OK(doc.Bind(alphabet));

  common::Executor executor(Threads(4));
  core::ParallelCastValidator::Options options;
  options.spawn_threshold = 4;  // force real fan-out even on small docs
  core::ParallelCastValidator parallel(&relations, &executor, options);
  // The donation gate requires an observably idle worker, and on a loaded
  // (or single-core) machine the pool's threads can still be starting up
  // when a small document's walk already finished — no fan-out, nothing to
  // flow-link. Retry with a fresh sink until the split actually happened.
  core::ParallelCastValidator::RunStats stats;
  for (int attempt = 0; attempt < 100 && stats.tasks < 2; ++attempt) {
    TraceSink::Global().Clear();
    stats = {};
    core::ValidationReport report = parallel.Validate(doc, &stats);
    ASSERT_TRUE(report.valid);
    if (stats.tasks < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(stats.tasks, 2u) << "no fan-out after retries";

  std::vector<DecodedEvent> events = DecodeExport();
  ASSERT_FALSE(events.empty());

  // The request id stamped by the validator's RequestScope: all spans of
  // the run carry it.
  uint64_t request_id = 0;
  for (const DecodedEvent& e : events) {
    if (e.ph == "X" && e.name == "cast.traverse") request_id = e.trace_id;
  }
  ASSERT_NE(request_id, 0u);

  std::map<uint64_t, size_t> starts;    // flow id → 's' count
  std::map<uint64_t, size_t> finishes;  // flow id → 'f' count
  std::map<uint64_t, size_t> tasks_by_tid;
  std::map<uint64_t, size_t> finishes_by_tid;
  size_t tasks = 0;
  for (const DecodedEvent& e : events) {
    if (e.ph == "s") {
      EXPECT_EQ(e.name, "cast.flow");
      EXPECT_EQ(e.trace_id, request_id);
      ++starts[e.id];
    } else if (e.ph == "f") {
      EXPECT_EQ(e.name, "cast.flow");
      EXPECT_EQ(e.trace_id, request_id);
      ++finishes[e.id];
      ++finishes_by_tid[e.tid];
      // The finish shares its task span's start timestamp, so Perfetto's
      // bp:"e" binding resolves to that slice.
      bool inside_task = false;
      for (const DecodedEvent& t : events) {
        if (t.ph == "X" && t.name == "cast.task" && t.tid == e.tid &&
            e.ts >= t.ts && e.ts <= t.ts + t.dur) {
          inside_task = true;
          break;
        }
      }
      EXPECT_TRUE(inside_task) << "flow finish outside any cast.task slice";
    } else if (e.ph == "X" && e.name == "cast.task") {
      ++tasks;
      ++tasks_by_tid[e.tid];
      EXPECT_EQ(e.trace_id, request_id);
    }
  }
  EXPECT_EQ(tasks, stats.tasks);
  // One inbound flow finish per task, settled per thread: a worker that
  // ran N tasks consumed exactly N flow edges.
  EXPECT_EQ(tasks_by_tid, finishes_by_tid);
  // Flow edges pair up 1:1 — every spawned task was picked up, every
  // pickup has a spawner.
  EXPECT_EQ(starts.size(), finishes.size());
  EXPECT_EQ(starts.size(), tasks);
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1u) << "flow id " << id << " started twice";
    EXPECT_EQ(finishes.count(id), 1u) << "flow id " << id << " never consumed";
  }
  for (const auto& [id, n] : finishes) {
    EXPECT_EQ(n, 1u) << "flow id " << id << " consumed twice";
  }
}

// ------------------------------------------------------- tail sampling

TEST(ObsCausalTest, TailSamplingKeepsResolvedTracesAndDropsTheRest) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;
  TraceSink& sink = TraceSink::Global();
  sink.SetTailSampling(true);

  uint64_t kept_id = 0;
  uint64_t dropped_id = 0;
  {
    RequestScope scope;
    kept_id = scope.trace_id();
    ASSERT_NE(kept_id, 0u);
    { Span span("kept.work"); }
    // Events are staged, not yet visible.
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.staged(), 1u);
    scope.set_keep(true);
  }
  {
    RequestScope scope;
    dropped_id = scope.trace_id();
    { Span span("dropped.work"); }
    scope.set_keep(false);
  }
  EXPECT_NE(kept_id, dropped_id);
  EXPECT_EQ(sink.staged(), 0u);

  std::vector<TraceSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept.work");
  EXPECT_EQ(events[0].trace_id, kept_id);
  EXPECT_EQ(sink.tail_dropped(), 1u);
}

TEST(ObsCausalTest, NestedScopeAdoptsAndHintsKeepToOwner) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;
  TraceSink& sink = TraceSink::Global();
  sink.SetTailSampling(true);

  {
    RequestScope owner;
    ASSERT_TRUE(owner.owns());
    owner.set_keep(false);  // owner itself votes drop...
    {
      RequestScope nested;
      EXPECT_FALSE(nested.owns());
      EXPECT_EQ(nested.trace_id(), owner.trace_id());
      { Span span("nested.work"); }
      HintKeepTrace();  // ...but a nested sampler saw something tail-worthy
    }
  }
  // The hint overrides the owner's drop: the trace survived.
  std::vector<TraceSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "nested.work");
}

}  // namespace
}  // namespace xmlreval::obs
