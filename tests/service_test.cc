// ValidationService, SchemaRegistry, and the batch pipeline.

#include "service/validation_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "core/cast_validator.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "core/relations.h"
#include "obs/metrics.h"
#include "workload/update_workload.h"
#include "xml/editor.h"
#include "xml/parser.h"

// Some tests assert that instrumentation actually records samples; with
// the compile-time escape hatch active there is nothing to observe.
#ifdef XMLREVAL_OBS_DISABLED
#define SKIP_IF_OBS_COMPILED_OUT() \
  GTEST_SKIP() << "instrumentation compiled out (XMLREVAL_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_COMPILED_OUT() (void)0
#endif


namespace xmlreval::service {
namespace {

constexpr const char* kV1Dtd = R"(
<!ELEMENT note (to, from, body?)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT body (#PCDATA)>
)";

constexpr const char* kV2Dtd = R"(
<!ELEMENT note (to, from, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT from (#PCDATA)>
<!ELEMENT body (#PCDATA)>
)";

constexpr const char* kFullNote =
    "<note><to>a</to><from>b</from><body>c</body></note>";
constexpr const char* kBodylessNote = "<note><to>a</to><from>b</from></note>";

schema::DtdParseOptions NoteOptions() {
  schema::DtdParseOptions options;
  options.roots = {"note"};
  return options;
}

// ---------------------------------------------------------------- registry

TEST(SchemaRegistryTest, VersionsAndDedup) {
  SchemaRegistry registry;
  auto v1 = registry.RegisterDtd("note", kV1Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok()) << v1.status();

  // Byte-identical re-registration is idempotent.
  auto again = registry.RegisterDtd("note", kV1Dtd, NoteOptions());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*v1, *again);
  EXPECT_EQ(registry.VersionCount("note"), 1u);

  // Different text bumps the version.
  auto v2 = registry.RegisterDtd("note", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(*v1, *v2);
  EXPECT_EQ(registry.VersionCount("note"), 2u);
  EXPECT_EQ(registry.size(), 2u);

  // Resolve: latest by default, any version explicitly.
  ASSERT_TRUE(registry.Resolve("note").ok());
  EXPECT_EQ(*registry.Resolve("note"), *v2);
  EXPECT_EQ(*registry.Resolve("note", 1), *v1);
  EXPECT_EQ(*registry.Resolve("note", 2), *v2);
  EXPECT_FALSE(registry.Resolve("note", 3).ok());
  EXPECT_FALSE(registry.Resolve("unknown").ok());

  auto info = registry.info(*v2);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->key, "note");
  EXPECT_EQ(info->version, 2u);
  EXPECT_FALSE(registry.info(999).ok());
  EXPECT_EQ(registry.schema(999), nullptr);
}

TEST(SchemaRegistryTest, RejectsBadInput) {
  SchemaRegistry registry;
  EXPECT_FALSE(registry.RegisterDtd("", kV1Dtd).ok());
  EXPECT_FALSE(registry.RegisterDtd("broken", "<!ELEMENT").ok());
  EXPECT_FALSE(registry.RegisterXsd("broken", "not xsd at all").ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(SchemaRegistryTest, RegisterSchemaRequiresSharedAlphabet) {
  SchemaRegistry registry;
  auto foreign = schema::ParseDtd(
      kV1Dtd, std::make_shared<automata::Alphabet>(), NoteOptions());
  ASSERT_TRUE(foreign.ok());
  EXPECT_FALSE(
      registry.RegisterSchema("note", std::move(foreign).value()).ok());

  auto native = schema::ParseDtd(kV1Dtd, registry.alphabet(), NoteOptions());
  ASSERT_TRUE(native.ok());
  EXPECT_TRUE(
      registry.RegisterSchema("note", std::move(native).value()).ok());
}

// All schemas of one registry share one alphabet, so any registered pair
// is castable.
TEST(SchemaRegistryTest, CrossSchemaRelationsWork) {
  SchemaRegistry registry;
  auto v1 = registry.RegisterDtd("v1", kV1Dtd, NoteOptions());
  auto v2 = registry.RegisterDtd("v2", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  auto relations = core::TypeRelations::Compute(registry.schema(*v1).get(),
                                                registry.schema(*v2).get());
  EXPECT_TRUE(relations.ok()) << relations.status();
}

// ------------------------------------------------------------ primitives

TEST(BoundedQueueTest, FifoAndClose) {
  common::BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);

  EXPECT_TRUE(queue.Push(3));
  queue.Close();
  EXPECT_FALSE(queue.Push(4));   // refused after close...
  EXPECT_EQ(queue.Pop(), 3);     // ...but accepted items drain
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  common::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full, non-blocking refusal
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(BoundedQueueTest, PushBlocksUntilSpace) {
  common::BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.Push(2);  // blocks: queue is full
    pushed.store(true);
  });
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.Pop(), 1);  // frees a slot
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.Pop(), 2);
}

// The work-stealing Executor behind SubmitBatch has its own suite in
// executor_test.cc.

// --------------------------------------------------------------- service

class ValidationServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto v1 = service_.registry().RegisterDtd("v1", kV1Dtd, NoteOptions());
    auto v2 = service_.registry().RegisterDtd("v2", kV2Dtd, NoteOptions());
    ASSERT_TRUE(v1.ok()) << v1.status();
    ASSERT_TRUE(v2.ok()) << v2.status();
    v1_ = *v1;
    v2_ = *v2;
  }

  ValidationService service_;
  SchemaHandle v1_ = kInvalidSchemaHandle;
  SchemaHandle v2_ = kInvalidSchemaHandle;
};

TEST_F(ValidationServiceTest, ValidateMatchesFullValidator) {
  auto doc = xml::ParseXml(kBodylessNote);
  ASSERT_TRUE(doc.ok());

  auto v1_report = service_.Validate(v1_, *doc);
  ASSERT_TRUE(v1_report.ok());
  EXPECT_TRUE(v1_report->valid);

  auto v2_report = service_.Validate(v2_, *doc);
  ASSERT_TRUE(v2_report.ok());
  EXPECT_FALSE(v2_report->valid);
  EXPECT_FALSE(v2_report->violation.empty());

  EXPECT_FALSE(service_.Validate(777, *doc).ok());
}

TEST_F(ValidationServiceTest, CastMatchesBareCastValidator) {
  auto full_note = xml::ParseXml(kFullNote);
  auto bodyless = xml::ParseXml(kBodylessNote);
  ASSERT_TRUE(full_note.ok());
  ASSERT_TRUE(bodyless.ok());

  auto relations = core::TypeRelations::Compute(
      service_.registry().schema(v1_).get(),
      service_.registry().schema(v2_).get());
  ASSERT_TRUE(relations.ok());
  core::CastValidator bare(&*relations);

  for (const xml::Document* doc : {&*full_note, &*bodyless}) {
    auto via_service = service_.Cast(v1_, v2_, *doc);
    ASSERT_TRUE(via_service.ok()) << via_service.status();
    core::ValidationReport direct = bare.Validate(*doc);
    EXPECT_EQ(via_service->valid, direct.valid);
    EXPECT_EQ(via_service->counters.nodes_visited,
              direct.counters.nodes_visited);
  }

  // Both casts shared one cached fixpoint.
  EXPECT_EQ(service_.cache().stats().computations, 1u);
}

TEST_F(ValidationServiceTest, CastStreamMatchesDomCast) {
  for (const char* text : {kFullNote, kBodylessNote}) {
    auto doc = xml::ParseXml(text);
    ASSERT_TRUE(doc.ok());
    auto dom = service_.Cast(v1_, v2_, *doc);
    ASSERT_TRUE(dom.ok()) << dom.status();
    auto streamed = service_.CastStream(v1_, v2_, text);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed->valid, dom->valid) << text;
  }
  ValidationService::Counters counters = service_.counters();
  EXPECT_EQ(counters.cast_streams, 2u);
  EXPECT_EQ(counters.stream_bytes,
            std::string(kFullNote).size() + std::string(kBodylessNote).size());
  EXPECT_EQ(counters.requests, counters.valid + counters.invalid +
                                   counters.errors);
}

TEST_F(ValidationServiceTest, CastStreamParseErrorIsAnError) {
  auto broken = service_.CastStream(v1_, v2_, "<note><to>a</to");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kParseError);

  // Bad handles are booked too: the counter identity must still hold.
  EXPECT_FALSE(service_.CastStream(777, v2_, kFullNote).ok());
  ValidationService::Counters counters = service_.counters();
  EXPECT_EQ(counters.errors, 2u);
  EXPECT_EQ(counters.requests, counters.valid + counters.invalid +
                                   counters.errors);
}

TEST_F(ValidationServiceTest, CastStreamSessionFeedsIncrementally) {
  // Identical pair: the root is subsumed, so the engine byte-skips the
  // document body without tokenizing it.
  auto session = service_.StartCastStream(v1_, v1_);
  ASSERT_TRUE(session.ok()) << session.status();
  std::string text = kFullNote;
  for (size_t pos = 0; pos < text.size(); pos += 7) {
    Status fed = (*session)->Feed(std::string_view(text).substr(pos, 7));
    if (!fed.ok()) break;
  }
  auto report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->valid);
  const core::StreamingReport& streamed = (*session)->streaming_report();
  EXPECT_EQ(streamed.bytes_fed, text.size());
  EXPECT_GT(streamed.bytes_skipped, 0u);
  // Finish is idempotent and books exactly one request.
  ASSERT_TRUE((*session)->Finish().ok());
  EXPECT_EQ(service_.counters().cast_streams, 1u);
}

TEST_F(ValidationServiceTest, BatchRoutesLargeCastsThroughStreaming) {
  ValidationService::Options options;
  options.batch_threads = 2;
  options.stream_threshold_bytes = 1;  // everything streams
  ValidationService service(options);
  auto v1 = service.registry().RegisterDtd("v1", kV1Dtd, NoteOptions());
  auto v2 = service.registry().RegisterDtd("v2", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  std::vector<ValidationService::BatchItem> items(3);
  items[0].op = ValidationService::BatchOp::kCast;
  items[0].source = *v1;
  items[0].target = *v2;
  items[0].xml_text = kFullNote;
  items[1] = items[0];
  items[1].xml_text = kBodylessNote;  // cast-invalid under v2
  items[2] = items[0];
  items[2].xml_text = "<note><broken";  // malformed

  auto results = service.SubmitBatch(std::move(items)).get();
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_TRUE(results[0].report.valid);
  ASSERT_TRUE(results[1].status.ok()) << results[1].status;
  EXPECT_FALSE(results[1].report.valid);
  EXPECT_FALSE(results[2].status.ok());

  ValidationService::Counters counters = service.counters();
  EXPECT_EQ(counters.cast_streams, 2u);  // the malformed item errored
  EXPECT_GT(counters.stream_bytes, 0u);
  EXPECT_EQ(counters.requests, counters.valid + counters.invalid +
                                   counters.errors);
}

TEST_F(ValidationServiceTest, CastPreconditionOptionRejectsSourceInvalid) {
  ValidationService::Options options;
  options.check_cast_precondition = true;
  ValidationService strict(options);
  auto v1 = strict.registry().RegisterDtd("v1", kV1Dtd, NoteOptions());
  auto v2 = strict.registry().RegisterDtd("v2", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  auto alien = xml::ParseXml("<other/>");
  ASSERT_TRUE(alien.ok());
  auto report = strict.Cast(*v1, *v2, *alien);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);

  auto ok_doc = xml::ParseXml(kFullNote);
  ASSERT_TRUE(ok_doc.ok());
  auto ok_report = strict.Cast(*v1, *v2, *ok_doc);
  ASSERT_TRUE(ok_report.ok());
  EXPECT_TRUE(ok_report->valid);
}

TEST_F(ValidationServiceTest, CastWithModsRoutesThroughService) {
  // Start from a v1&v2-valid note, delete <body>: still v1-valid,
  // no longer v2-valid.
  auto doc = xml::ParseXml(kFullNote);
  ASSERT_TRUE(doc.ok());
  xml::DocumentEditor editor(&*doc);
  xml::NodeId body = xml::kInvalidNode;
  for (xml::NodeId child = doc->first_child(doc->root());
       child != xml::kInvalidNode; child = doc->next_sibling(child)) {
    if (doc->IsElement(child) && doc->label(child) == "body") body = child;
  }
  ASSERT_NE(body, xml::kInvalidNode);
  // Leaves delete bottom-up: the text payload, then <body> itself.
  ASSERT_TRUE(editor.DeleteLeaf(doc->first_child(body)).ok());
  ASSERT_TRUE(editor.DeleteLeaf(body).ok());
  xml::ModificationIndex mods = editor.Seal();

  auto report = service_.CastWithMods(v1_, v1_, *doc, mods);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->valid);

  auto v2_report = service_.CastWithMods(v1_, v2_, *doc, mods);
  ASSERT_TRUE(v2_report.ok());
  EXPECT_FALSE(v2_report->valid);

  EXPECT_EQ(service_.counters().casts_with_mods, 2u);
}

TEST_F(ValidationServiceTest, BatchReturnsPerItemResultsInOrder) {
  ValidationService::Options options;
  options.batch_threads = 4;
  options.batch_queue_capacity = 2;  // force backpressure
  ValidationService service(options);
  auto v1 = service.registry().RegisterDtd("v1", kV1Dtd, NoteOptions());
  auto v2 = service.registry().RegisterDtd("v2", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  std::vector<ValidationService::BatchItem> items;
  for (int i = 0; i < 40; ++i) {
    ValidationService::BatchItem item;
    item.op = ValidationService::BatchOp::kCast;
    item.source = *v1;
    item.target = *v2;
    item.xml_text = (i % 2 == 0) ? kFullNote : kBodylessNote;
    items.push_back(std::move(item));
  }
  // A malformed document and a full-validate op mixed into the same batch.
  ValidationService::BatchItem malformed;
  malformed.xml_text = "<note><to>";
  malformed.source = *v1;
  malformed.target = *v2;
  items.push_back(std::move(malformed));
  ValidationService::BatchItem full_op;
  full_op.op = ValidationService::BatchOp::kValidate;
  full_op.target = *v1;
  full_op.xml_text = kBodylessNote;
  items.push_back(std::move(full_op));

  auto results = service.SubmitBatch(std::move(items)).get();
  ASSERT_EQ(results.size(), 42u);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(results[i].status.ok()) << i << ": " << results[i].status;
    EXPECT_EQ(results[i].report.valid, i % 2 == 0) << i;
  }
  EXPECT_FALSE(results[40].status.ok());
  EXPECT_TRUE(results[41].status.ok());
  EXPECT_TRUE(results[41].report.valid);

  // Single-flight held across the whole batch: one fixpoint.
  EXPECT_EQ(service.cache().stats().computations, 1u);
  ValidationService::Counters counters = service.counters();
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.batch_items, 42u);
  EXPECT_EQ(counters.requests, 42u);
  EXPECT_EQ(counters.valid, 20u + 1u);
  EXPECT_EQ(counters.invalid, 20u);
  EXPECT_EQ(counters.errors, 1u);
  EXPECT_EQ(counters.casts, 40u);
  EXPECT_EQ(counters.full_validations, 1u);
}

// Options::intra_doc_threads routes large casts through the parallel
// subtree engine; the report must be bit-identical to the serial one.
TEST_F(ValidationServiceTest, IntraDocParallelCastMatchesSerial) {
  constexpr const char* kWideDtd = R"(
<!ELEMENT r (a*, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
)";
  constexpr const char* kNarrowDtd = R"(
<!ELEMENT r (a*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
)";
  schema::DtdParseOptions roots;
  roots.roots = {"r"};

  ValidationService::Options options;
  options.intra_doc_threads = 2;
  options.intra_doc_min_nodes = 16;
  options.intra_doc_spawn_threshold = 8;
  ValidationService parallel_service(options);
  auto source =
      parallel_service.registry().RegisterDtd("wide", kWideDtd, roots);
  auto target =
      parallel_service.registry().RegisterDtd("narrow", kNarrowDtd, roots);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());

  std::string text = "<r>";
  for (int i = 0; i < 400; ++i) text += "<a>x</a>";
  text += "</r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());

  auto relations = core::TypeRelations::Compute(
      parallel_service.registry().schema(*source).get(),
      parallel_service.registry().schema(*target).get());
  ASSERT_TRUE(relations.ok());
  core::ValidationReport serial = core::CastValidator(&*relations).Validate(*doc);

  auto via_service = parallel_service.Cast(*source, *target, *doc);
  ASSERT_TRUE(via_service.ok()) << via_service.status();
  EXPECT_EQ(via_service->valid, serial.valid);
  EXPECT_EQ(via_service->violation, serial.violation);
  EXPECT_EQ(via_service->counters.nodes_visited,
            serial.counters.nodes_visited);
  EXPECT_EQ(via_service->counters.dfa_steps, serial.counters.dfa_steps);
  EXPECT_EQ(via_service->counters.subtrees_skipped,
            serial.counters.subtrees_skipped);
}

// Regression: destroying the service while large-document batch casts are
// in flight must not deadlock. Each draining batch worker's Cast reaches
// IntraExecutor(); the old destructor held executors_mutex_ across the
// batch join while the worker blocked on that same mutex.
TEST(ValidationServiceTeardownTest, InflightIntraDocCastDoesNotHang) {
  for (int round = 0; round < 8; ++round) {
    ValidationService::Options options;
    options.batch_threads = 2;
    options.intra_doc_threads = 2;
    options.intra_doc_min_nodes = 1;  // every cast takes the parallel path
    ValidationService service(options);
    auto v1 = service.registry().RegisterDtd("note", kV1Dtd, NoteOptions());
    auto v2 = service.registry().RegisterDtd("note", kV2Dtd, NoteOptions());
    ASSERT_TRUE(v1.ok());
    ASSERT_TRUE(v2.ok());

    std::vector<ValidationService::BatchItem> items(8);
    for (auto& item : items) {
      item.op = ValidationService::BatchOp::kCast;
      item.source = *v1;
      item.target = *v2;
      item.xml_text = kFullNote;
    }
    service.SubmitBatch(std::move(items));
    // Destroy with the batch still in flight: the destructor must drain
    // (fulfilling the future) without deadlocking on executor creation.
  }
}

TEST_F(ValidationServiceTest, EmptyBatchResolvesImmediately) {
  auto results = service_.SubmitBatch({}).get();
  EXPECT_TRUE(results.empty());
}

// Registration concurrent with serving: the registry's reader/writer lock
// must keep alphabet growth safe under live validation traffic.
TEST_F(ValidationServiceTest, RegistrationConcurrentWithServing) {
  auto doc = xml::ParseXml(kFullNote);
  ASSERT_TRUE(doc.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> validators;
  for (int t = 0; t < 4; ++t) {
    validators.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto report = service_.Cast(v1_, v2_, *doc);
        if (!report.ok() || !report->valid) errors.fetch_add(1);
      }
    });
  }
  // Meanwhile register fresh schemas with brand-new labels (Σ grows).
  for (int i = 0; i < 20; ++i) {
    std::string label = "extra" + std::to_string(i);
    std::string dtd = "<!ELEMENT " + label + " (#PCDATA)>";
    auto handle = service_.registry().RegisterDtd("gen-" + label, dtd);
    EXPECT_TRUE(handle.ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : validators) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(service_.registry().size(), 22u);
}

// ------------------------------------------------------------ observability

// The obs registry's histograms must reconcile exactly with the request
// counters after a batch: every dispatched op contributes one latency
// sample, every item one service-time sample.
TEST_F(ValidationServiceTest, MetricsReconcileWithRequestCounters) {
  SKIP_IF_OBS_COMPILED_OUT();
  obs::SetEnabled(true);
  ValidationService service;
  auto v1 = service.registry().RegisterDtd("v1", kV1Dtd, NoteOptions());
  auto v2 = service.registry().RegisterDtd("v2", kV2Dtd, NoteOptions());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  std::vector<ValidationService::BatchItem> items;
  for (int i = 0; i < 20; ++i) {
    ValidationService::BatchItem item;
    item.source = *v1;
    item.target = *v2;
    item.xml_text = (i % 2 == 0) ? kFullNote : kBodylessNote;
    items.push_back(std::move(item));
  }
  ValidationService::BatchItem malformed;
  malformed.xml_text = "<broken";
  items.push_back(std::move(malformed));
  auto results = service.SubmitBatch(std::move(items)).get();
  ASSERT_EQ(results.size(), 21u);

  ValidationService::Counters counters = service.counters();
  obs::MetricsSnapshot snapshot = service.metrics().Snapshot();

  const obs::CounterSnapshot* cast_requests =
      snapshot.FindCounter("xmlreval_op_requests_total", {{"op", "cast"}});
  const obs::HistogramSnapshot* cast_latency =
      snapshot.FindHistogram("xmlreval_request_latency_us", {{"op", "cast"}});
  ASSERT_NE(cast_requests, nullptr);
  ASSERT_NE(cast_latency, nullptr);
  EXPECT_EQ(cast_requests->value, 20u);
  EXPECT_EQ(cast_latency->count, cast_requests->value);

  // Per-pair histogram, labeled with registry key + version.
  const obs::HistogramSnapshot* pair_latency = snapshot.FindHistogram(
      "xmlreval_pair_request_latency_us", {{"pair", "v1.v1->v2.v1"}});
  ASSERT_NE(pair_latency, nullptr);
  EXPECT_EQ(pair_latency->count, 20u);

  // Every batch item — including the malformed one — takes one sample in
  // the queue-wait and service-time histograms.
  EXPECT_EQ(
      snapshot.FindHistogram("xmlreval_batch_queue_wait_us")->count, 21u);
  EXPECT_EQ(snapshot.FindHistogram("xmlreval_batch_service_us")->count, 21u);

  // The Counters snapshot and the metrics snapshot agree.
  EXPECT_EQ(snapshot.FindCounter("xmlreval_requests_total")->value,
            counters.requests);
  EXPECT_EQ(
      snapshot.FindCounter("xmlreval_verdicts_total", {{"verdict", "valid"}})
          ->value,
      counters.valid);
  EXPECT_EQ(
      snapshot.FindCounter("xmlreval_verdicts_total", {{"verdict", "error"}})
          ->value,
      1u);
  EXPECT_EQ(snapshot.FindCounter("xmlreval_nodes_visited_total")->value,
            counters.nodes_visited);
  // Relations-cache metrics live in the same (per-service) registry.
  EXPECT_EQ(
      snapshot.FindCounter("xmlreval_relations_cache_computations_total")
          ->value,
      1u);
  // Batch inflight gauge settled back to zero once the batch drained.
  const obs::GaugeSnapshot* inflight =
      snapshot.FindGauge("xmlreval_batch_inflight");
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->value, 0);
  // Queue-depth gauges report the HIGH-WATER mark since the previous
  // snapshot: the first exposition after the batch shows the peak backlog
  // (the 21-item burst must register on the batch executor), and the next
  // one — taken at quiescence with the interval's peak already consumed —
  // settles to the live depth of zero.
  {
    const obs::GaugeSnapshot* batch_depth = snapshot.FindGauge(
        "xmlreval_executor_queue_depth", {{"executor", "batch"}});
    ASSERT_NE(batch_depth, nullptr);
    EXPECT_GT(batch_depth->value, 0);
    obs::MetricsSnapshot settled = service.metrics().Snapshot();
    for (const char* executor : {"batch", "intra_doc"}) {
      const obs::GaugeSnapshot* depth = settled.FindGauge(
          "xmlreval_executor_queue_depth", {{"executor", executor}});
      ASSERT_NE(depth, nullptr) << executor;
      EXPECT_EQ(depth->value, 0) << executor;
    }
  }
  // Document-footprint gauges track the last served document's
  // MemoryUsage (SoA columns + string arena + attributes).
  const obs::GaugeSnapshot* doc_bytes =
      snapshot.FindGauge("xmlreval_doc_bytes");
  const obs::GaugeSnapshot* doc_bytes_per_node =
      snapshot.FindGauge("xmlreval_doc_bytes_per_node");
  ASSERT_NE(doc_bytes, nullptr);
  ASSERT_NE(doc_bytes_per_node, nullptr);
  EXPECT_GT(doc_bytes->value, 0);
  EXPECT_GT(doc_bytes_per_node->value, 0);
  // The flag+link columns alone are 25 bytes/row, so anything below that
  // means MemoryUsage is lying. No upper bound: on tiny documents the
  // fixed 64 KiB string-arena chunk dominates the per-node amortisation.
  EXPECT_GE(doc_bytes_per_node->value, 25);
}

// PR 1's counters() read one atomic at a time, so a snapshot taken during
// a request could see requests incremented but no verdict yet. The
// migrated path records each request under a shared lock and snapshots
// under the exclusive side: requests == valid + invalid + errors at EVERY
// snapshot, not just at quiescence.
// ----------------------------------------------------- edit-stream path

// feed accepts (entry|note)* — entry/note are neutral and interchangeable;
// meta can never appear under feed.
constexpr const char* kStarDtd = R"(
<!ELEMENT feed ((entry|note)*)>
<!ELEMENT entry (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT meta (title)>
<!ELEMENT title (#PCDATA)>
)";

class EditStreamServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto s = service_.registry().RegisterDtd("star-src", kStarDtd, {});
    auto t = service_.registry().RegisterDtd("star-tgt", kStarDtd, {});
    ASSERT_TRUE(s.ok()) << s.status();
    ASSERT_TRUE(t.ok()) << t.status();
    source_ = *s;
    target_ = *t;
  }

  xml::Document Doc(const char* text) {
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(service_.BindDocument(&*doc).ok());
    return std::move(doc).value();
  }

  ValidationService service_;
  SchemaHandle source_ = kInvalidSchemaHandle;
  SchemaHandle target_ = kInvalidSchemaHandle;
};

TEST_F(EditStreamServiceTest, AnalyzeUpdateClassifiesWithoutMutating) {
  xml::Document doc = Doc("<feed><entry>x</entry></feed>");
  xml::NodeId entry = doc.first_child(doc.root());

  xml::EditOp rename{xml::EditOp::Kind::kRename, entry, "note"};
  auto verdict = service_.AnalyzeUpdate(source_, target_, doc, rename);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_EQ(verdict->safety, analysis::Safety::kSafe) << verdict->reason;
  EXPECT_EQ(doc.label(entry), "entry");  // pure query, no tree change

  xml::EditOp doomed{xml::EditOp::Kind::kInsertElementFirstChild, doc.root(),
                     "meta"};
  auto fatal = service_.AnalyzeUpdate(source_, target_, doc, doomed);
  ASSERT_TRUE(fatal.ok());
  EXPECT_EQ(fatal->safety, analysis::Safety::kFatal);

  EXPECT_FALSE(service_.AnalyzeUpdate(777, target_, doc, rename).ok());
}

TEST_F(EditStreamServiceTest, SafeStreamShortCircuitsAndCommits) {
  xml::Document doc = Doc("<feed><entry>x</entry><note/></feed>");
  xml::NodeId entry = doc.first_child(doc.root());
  std::vector<xml::EditOp> ops{
      {xml::EditOp::Kind::kRename, entry, "note"},
      {xml::EditOp::Kind::kInsertElementFirstChild, doc.root(), "entry"},
  };
  auto result = service_.SubmitEditStream(source_, target_, &doc, ops);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->short_circuited);
  EXPECT_EQ(result->stream.verdict, analysis::Safety::kSafe);
  EXPECT_TRUE(result->report.valid);
  // The stream was committed: the rename landed.
  EXPECT_EQ(doc.label(entry), "note");

  ValidationService::Counters c = service_.counters();
  EXPECT_EQ(c.edit_streams, 1u);
  EXPECT_EQ(c.streams_short_circuited, 1u);
  EXPECT_EQ(c.edit_ops_safe, 2u);
  EXPECT_EQ(c.edit_ops_fatal, 0u);
  EXPECT_EQ(c.valid, 1u);
}

TEST_F(EditStreamServiceTest, FatalStreamShortCircuitsAsInvalid) {
  xml::Document doc = Doc("<feed><entry>x</entry></feed>");
  std::vector<xml::EditOp> ops{
      {xml::EditOp::Kind::kInsertElementFirstChild, doc.root(), "meta"},
  };
  auto result = service_.SubmitEditStream(source_, target_, &doc, ops);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->short_circuited);
  EXPECT_EQ(result->stream.verdict, analysis::Safety::kFatal);
  EXPECT_FALSE(result->report.valid);
  EXPECT_FALSE(result->report.violation.empty());

  ValidationService::Counters c = service_.counters();
  EXPECT_EQ(c.streams_short_circuited, 1u);
  EXPECT_EQ(c.edit_ops_fatal, 1u);
  EXPECT_EQ(c.invalid, 1u);
}

TEST_F(EditStreamServiceTest, UndecidedStreamFallsBackToModValidator) {
  xml::Document doc = Doc("<feed><entry>x</entry></feed>");
  xml::NodeId entry = doc.first_child(doc.root());
  xml::NodeId text = doc.first_child(entry);
  // Text inserted next to existing simple content: statically undecided,
  // but perfectly valid PCDATA — the fallback must say so.
  std::vector<xml::EditOp> ops{
      {xml::EditOp::Kind::kInsertTextBefore, text, "pre-"},
  };
  auto result = service_.SubmitEditStream(source_, target_, &doc, ops);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->short_circuited);
  EXPECT_EQ(result->stream.verdict, analysis::Safety::kUnknown);
  EXPECT_TRUE(result->report.valid) << result->report.violation;
  // The fallback actually visited the tree.
  EXPECT_GT(result->report.counters.nodes_visited, 0u);

  ValidationService::Counters c = service_.counters();
  EXPECT_EQ(c.edit_streams, 1u);
  EXPECT_EQ(c.streams_short_circuited, 0u);
  EXPECT_EQ(c.edit_ops_unknown, 1u);
}

// A caller's script that inserts under a node it deleted is refused at
// that op, before anything is validated or committed.
TEST_F(EditStreamServiceTest, InsertUnderDeletedNodeFailsAtTheOp) {
  xml::Document doc = Doc("<feed><entry>x</entry><note/></feed>");
  xml::NodeId note = doc.last_child(doc.root());
  std::vector<xml::EditOp> ops{
      {xml::EditOp::Kind::kDeleteLeaf, note, ""},
      {xml::EditOp::Kind::kInsertElementFirstChild, note, "entry"},
  };
  auto result = service_.SubmitEditStream(source_, target_, &doc, ops);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("deleted"), std::string::npos)
      << result.status();
  EXPECT_EQ(service_.counters().errors, 1u);
}

TEST_F(EditStreamServiceTest, AnalyzersAreCompiledOncePerPair) {
  for (int i = 0; i < 3; ++i) {
    xml::Document doc = Doc("<feed><entry>x</entry></feed>");
    xml::NodeId entry = doc.first_child(doc.root());
    std::vector<xml::EditOp> ops{{xml::EditOp::Kind::kRename, entry, "note"}};
    ASSERT_TRUE(service_.SubmitEditStream(source_, target_, &doc, ops).ok());
  }
  EXPECT_EQ(service_.cache().stats().analyzer_compilations, 1u);
  ValidationService::Counters c = service_.counters();
  EXPECT_EQ(c.edit_streams, 3u);
  EXPECT_EQ(c.streams_short_circuited, 3u);
}

// Sixteen seeded 16-op streams on a 512-child feed, in three flavours of
// label pool: in-schema renames, deletes and text edits (i % 3 == 0), the
// same plus inserts (i % 3 == 1), and a pool that mixes in labels the
// schema does not know (i % 3 == 2). Exactly 14 streams are decided
// statically, and each static verdict is ModValidator's on the same edits.
TEST_F(EditStreamServiceTest, SeededStreamGridMatchesModValidator) {
  std::string feed = "<feed>";
  for (size_t i = 0; i < 512; ++i) {
    feed += (i % 3 != 0) ? "<entry>42</entry>" : "<note>n</note>";
  }
  feed += "</feed>";
  auto relations = service_.cache().Get(source_, target_);
  ASSERT_TRUE(relations.ok()) << relations.status();

  size_t short_circuited = 0;
  size_t short_circuited_ops = 0;
  for (size_t i = 0; i < 16; ++i) {
    workload::UpdateWorkloadOptions options;
    options.seed = 1000 + i;
    options.edit_count = 16;
    options.rename_safe_labels = {"entry", "note"};
    options.insert_safe_labels = {"entry", "note"};
    options.rename_unsafe_labels = {"wild", "offmodel"};
    options.insert_unsafe_labels = {"wild", "offmodel"};
    options.safe_percent = (i % 3 == 2) ? 30 : 100;
    if (i % 3 == 0) options.insert_weight = 0;
    options.rename_root = false;
    std::vector<xml::EditOp> ops;
    xml::Document scratch = Doc(feed.c_str());
    xml::DocumentEditor scratch_editor(&scratch);
    ASSERT_TRUE(
        workload::ApplyRandomUpdates(&scratch, &scratch_editor, options, &ops)
            .ok());
    ASSERT_EQ(ops.size(), 16u);

    // Node ids are deterministic per parse, so the script replays on a
    // fresh parse of the same feed.
    xml::Document truth = Doc(feed.c_str());
    xml::DocumentEditor truth_editor(&truth);
    for (const xml::EditOp& op : ops) ASSERT_TRUE(truth_editor.Apply(op).ok());
    const bool valid = core::ModValidator(relations->get())
                           .Validate(truth, truth_editor.Seal())
                           .valid;

    xml::Document doc = Doc(feed.c_str());
    auto result = service_.SubmitEditStream(source_, target_, &doc, ops);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->report.valid, valid) << "stream " << i;
    if (result->short_circuited) {
      EXPECT_EQ(result->stream.verdict == analysis::Safety::kSafe, valid)
          << "stream " << i;
      ++short_circuited;
      short_circuited_ops += ops.size();
    }
  }
  EXPECT_EQ(short_circuited, 14u);
  EXPECT_EQ(short_circuited_ops, 224u);
  ValidationService::Counters c = service_.counters();
  EXPECT_EQ(c.edit_streams, 16u);
  EXPECT_EQ(c.streams_short_circuited, 14u);
  EXPECT_EQ(c.edit_ops_safe + c.edit_ops_fatal + c.edit_ops_unknown, 256u);
}

TEST_F(ValidationServiceTest, CounterSnapshotsAreInternallyConsistent) {
  auto valid_doc = xml::ParseXml(kFullNote);
  auto invalid_doc = xml::ParseXml(kBodylessNote);
  ASSERT_TRUE(valid_doc.ok());
  ASSERT_TRUE(invalid_doc.ok());
  // Warm the relations cache so worker threads race through Record.
  ASSERT_TRUE(service_.Cast(v1_, v2_, *valid_doc).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        const xml::Document& doc = (i % 2 == 0) ? *valid_doc : *invalid_doc;
        auto report = service_.Cast(v1_, v2_, doc);
        ASSERT_TRUE(report.ok());
        if (i % 7 == 0) {
          service_.Validate(t % 2 == 0 ? v1_ : v2_, doc);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int probe = 0; probe < 2000; ++probe) {
    ValidationService::Counters c = service_.counters();
    ASSERT_EQ(c.requests, c.valid + c.invalid + c.errors)
        << "torn snapshot at probe " << probe;
  }
  for (std::thread& thread : workers) thread.join();

  ValidationService::Counters final_counters = service_.counters();
  EXPECT_EQ(final_counters.requests,
            final_counters.valid + final_counters.invalid +
                final_counters.errors);
  EXPECT_EQ(final_counters.casts, 1u + kThreads * kPerThread);
  EXPECT_EQ(final_counters.errors, 0u);
}

}  // namespace
}  // namespace xmlreval::service
