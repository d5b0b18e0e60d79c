// ParallelCastValidator: bit-identical reports to the serial engine on
// every input — verdict, violation message, violation path, AND counters —
// plus the no-stack-overflow guarantee the explicit frontier buys both
// engines. Run under TSan in CI (the equivalence hammer is the data-race
// probe for the work-stealing fan-out).

#include "core/parallel_cast_validator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/cast_validator.h"
#include "core/relations.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"
#include "workload/random_docs.h"
#include "workload/random_schemas.h"
#include "xml/parser.h"
#include "xml/tree.h"

namespace xmlreval::core {
namespace {

// Executor options with only the worker count set.
common::Executor::Options Threads(size_t n) {
  common::Executor::Options options;
  options.threads = n;
  return options;
}

using schema::Alphabet;
using schema::ParseDtd;

struct DtdPair {
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;

  void Load(const char* source_dtd, const char* target_dtd) {
    auto s = ParseDtd(source_dtd, alphabet);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    source = std::make_unique<Schema>(std::move(s).value());
    auto t = ParseDtd(target_dtd, alphabet);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    target = std::make_unique<Schema>(std::move(t).value());
    auto r = TypeRelations::Compute(source.get(), target.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    relations = std::make_unique<TypeRelations>(std::move(r).value());
  }
};

void ExpectSameReport(const ValidationReport& serial,
                      const ValidationReport& parallel,
                      const std::string& context) {
  EXPECT_EQ(serial.valid, parallel.valid) << context;
  EXPECT_EQ(serial.violation, parallel.violation) << context;
  EXPECT_EQ(serial.violation_path.ToString(),
            parallel.violation_path.ToString())
      << context;
  EXPECT_EQ(serial.counters.nodes_visited, parallel.counters.nodes_visited)
      << context;
  EXPECT_EQ(serial.counters.elements_visited,
            parallel.counters.elements_visited)
      << context;
  EXPECT_EQ(serial.counters.text_nodes_visited,
            parallel.counters.text_nodes_visited)
      << context;
  EXPECT_EQ(serial.counters.subtrees_skipped,
            parallel.counters.subtrees_skipped)
      << context;
  EXPECT_EQ(serial.counters.disjoint_rejects,
            parallel.counters.disjoint_rejects)
      << context;
  EXPECT_EQ(serial.counters.dfa_steps, parallel.counters.dfa_steps)
      << context;
  EXPECT_EQ(serial.counters.immediate_decisions,
            parallel.counters.immediate_decisions)
      << context;
  EXPECT_EQ(serial.counters.simple_checks, parallel.counters.simple_checks)
      << context;
  EXPECT_EQ(serial.counters.attr_checks, parallel.counters.attr_checks)
      << context;
}

// ------------------------------------------------- purchase-order corpus

// The Table 2 regime: relaxed-quantity source cast to the strict target
// (root pair NOT subsumed — every item is actually traversed). Checked
// both unbound (string labels) and bound (symbol fast path).
TEST(ParallelCastTest, PurchaseOrderCorpusMatchesSerial) {
  auto alphabet = std::make_shared<Alphabet>();
  auto src = schema::ParseXsd(workload::kRelaxedQuantityXsd, alphabet);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto tgt = schema::ParseXsd(workload::kTargetXsd, alphabet);
  ASSERT_TRUE(tgt.ok()) << tgt.status().ToString();
  Schema source = std::move(src).value();
  Schema target = std::move(tgt).value();
  ASSERT_OK_AND_ASSIGN(TypeRelations relations,
                       TypeRelations::Compute(&source, &target));

  common::Executor executor(Threads(4));
  CastValidator serial(&relations);
  ParallelCastValidator::Options options;
  options.spawn_threshold = 4;  // force real fan-out even on small docs
  ParallelCastValidator parallel(&relations, &executor, options);

  for (size_t items : {size_t{2}, size_t{50}, size_t{200}, size_t{1000}}) {
    for (bool bind : {false, true}) {
      workload::PoGeneratorOptions po;
      po.item_count = items;
      xml::Document doc = workload::GeneratePurchaseOrder(po);
      if (bind) ASSERT_OK(doc.Bind(alphabet));
      ValidationReport s = serial.Validate(doc);
      ParallelCastValidator::RunStats stats;
      ValidationReport p = parallel.Validate(doc, &stats);
      ExpectSameReport(s, p,
                       "items=" + std::to_string(items) +
                           " bound=" + std::to_string(bind));
      EXPECT_TRUE(s.valid);
      EXPECT_FALSE(stats.replayed);
    }
  }
}

// ------------------------------------------------------- deep documents

// Both engines use an explicit frontier, so a pathologically deep chain
// must validate without exhausting the thread stack (the pre-refactor
// recursive walk overflowed around a few tens of thousands of levels).
TEST(ParallelCastTest, HundredThousandDeepChainDoesNotOverflow) {
  DtdPair p;
  p.Load(
      "<!ELEMENT r (r?, a?)><!ELEMENT a EMPTY>",
      "<!ELEMENT r (r?)><!ELEMENT a EMPTY>");

  constexpr size_t kDepth = 100000;
  xml::Document doc;
  xml::NodeId top = doc.CreateElement("r");
  ASSERT_OK(doc.SetRoot(top));
  xml::NodeId tip = top;
  for (size_t i = 1; i < kDepth; ++i) {
    xml::NodeId next = doc.CreateElement("r");
    ASSERT_OK(doc.AppendChild(tip, next));
    tip = next;
  }
  ASSERT_EQ(doc.NodeCount(), kDepth);

  CastValidator serial(p.relations.get());
  ValidationReport s = serial.Validate(doc);
  EXPECT_TRUE(s.valid) << s.violation;
  EXPECT_EQ(s.counters.elements_visited, kDepth);

  common::Executor executor(Threads(2));
  ParallelCastValidator parallel(p.relations.get(), &executor);
  ValidationReport par = parallel.Validate(doc);
  ExpectSameReport(s, par, "deep chain, valid");

  // A violating <a/> at the very bottom: the failure (and its
  // depth-100000 Dewey path) must come back identically from both.
  ASSERT_OK(doc.AppendChild(tip, doc.CreateElement("a")));
  ValidationReport s_bad = serial.Validate(doc);
  EXPECT_FALSE(s_bad.valid);
  EXPECT_EQ(s_bad.violation_path.depth(), kDepth - 1);
  ValidationReport par_bad = parallel.Validate(doc);
  ExpectSameReport(s_bad, par_bad, "deep chain, deep failure");
}

// ------------------------------------------------- randomized equivalence

// The TSan hammer: random schema pairs (S, mutate(S)), random documents
// valid under S, tiny spawn threshold so the frontier splits aggressively,
// 4 workers. Any scheduling-dependent divergence — verdict, message,
// path, or any counter — fails the run.
TEST(ParallelCastTest, RandomizedDocsMatchSerialUnderAggressiveSplitting) {
  common::Executor executor(Threads(4));
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto alphabet = std::make_shared<Alphabet>();
    workload::RandomSchemaOptions schema_options;
    schema_options.seed = seed;
    schema_options.complex_types = 5;
    auto src = workload::GenerateRandomSchema(alphabet, schema_options);
    ASSERT_TRUE(src.ok()) << src.status().ToString();
    workload::MutationOptions mutation;
    mutation.seed = seed * 31 + 7;
    auto tgt = workload::MutateSchema(*src, mutation);
    ASSERT_TRUE(tgt.ok()) << tgt.status().ToString();
    auto relations = TypeRelations::Compute(&*src, &*tgt);
    ASSERT_TRUE(relations.ok()) << relations.status().ToString();

    CastValidator serial(&*relations);
    ParallelCastValidator::Options options;
    options.spawn_threshold = 4;
    ParallelCastValidator parallel(&*relations, &executor, options);

    workload::RandomDocOptions doc_options;
    doc_options.seed = seed * 1000003;
    doc_options.max_elements = 400;
    auto doc = workload::SampleDocument(*src, doc_options);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();

    ValidationReport s = serial.Validate(*doc);
    ValidationReport p = parallel.Validate(*doc);
    ExpectSameReport(s, p, "seed=" + std::to_string(seed));
  }
}

// ------------------------------------------------- failure determinism

// A wide document with MANY violations: whichever task hits one first,
// the reported violation must be the serial engine's (document-order
// first), on every rerun. Also checks that the tracked first-failing
// unit agrees with the serial report before the replay even runs.
TEST(ParallelCastTest, FirstFailureIsDeterministicUnderCancellation) {
  DtdPair p;
  p.Load(
      "<!ELEMENT r (a*)><!ELEMENT a (b?)><!ELEMENT b EMPTY>",
      "<!ELEMENT r (a*)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>");

  // <a><b/></a> violates the target (EMPTY); every child is a violation.
  std::string text = "<r>";
  for (int i = 0; i < 200; ++i) text += "<a><b/></a>";
  text += "</r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());

  CastValidator serial(p.relations.get());
  ValidationReport s = serial.Validate(*doc);
  ASSERT_FALSE(s.valid);

  common::Executor executor(Threads(4));
  ParallelCastValidator::Options options;
  options.spawn_threshold = 2;
  ParallelCastValidator parallel(p.relations.get(), &executor, options);

  for (int repeat = 0; repeat < 50; ++repeat) {
    ParallelCastValidator::RunStats stats;
    ValidationReport par = parallel.Validate(*doc, &stats);
    ExpectSameReport(s, par, "repeat=" + std::to_string(repeat));
    EXPECT_TRUE(stats.replayed);
    EXPECT_TRUE(stats.tracked_failure);
    // The tracked cell alone — before the serial replay — already names
    // the serial violation.
    EXPECT_EQ(stats.tracked_fail_path.ToString(),
              s.violation_path.ToString())
        << "repeat=" << repeat;
    EXPECT_EQ(stats.tracked_message, s.violation) << "repeat=" << repeat;
  }
}

// ------------------------------------------------------------ edge cases

// One worker: no idle peer ever exists, so the run never donates — a
// single task walks the whole document (the within-10%-of-serial bench
// guarantee rests on this).
TEST(ParallelCastTest, SingleThreadRunsAsOneTask) {
  DtdPair p;
  p.Load("<!ELEMENT r (a*, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>",
         "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>");
  std::string text = "<r>";
  for (int i = 0; i < 500; ++i) text += "<a>x</a>";
  text += "</r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());

  CastValidator serial(p.relations.get());
  ValidationReport s = serial.Validate(*doc);
  ASSERT_TRUE(s.valid);

  common::Executor executor(Threads(1));
  ParallelCastValidator::Options options;
  options.spawn_threshold = 2;  // would split eagerly IF a peer were idle
  ParallelCastValidator parallel(p.relations.get(), &executor, options);
  ParallelCastValidator::RunStats stats;
  ValidationReport par = parallel.Validate(*doc, &stats);
  ExpectSameReport(s, par, "single thread");
  EXPECT_EQ(stats.tasks, 1u);
}

// A subsumed root is pruned before any fan-out: one task, one visited
// node, identical to the serial short-circuit.
TEST(ParallelCastTest, SubsumedRootShortCircuitsWithoutFanOut) {
  DtdPair p;
  p.Load("<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>",
         "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>");
  auto doc = xml::ParseXml("<r><a>1</a><a>2</a></r>");
  ASSERT_TRUE(doc.ok());

  common::Executor executor(Threads(2));
  ParallelCastValidator parallel(p.relations.get(), &executor);
  ParallelCastValidator::RunStats stats;
  ValidationReport par = parallel.Validate(*doc, &stats);
  EXPECT_TRUE(par.valid);
  EXPECT_EQ(par.counters.nodes_visited, 1u);
  EXPECT_EQ(par.counters.subtrees_skipped, 1u);
  EXPECT_EQ(stats.tasks, 1u);

  CastValidator serial(p.relations.get());
  ExpectSameReport(serial.Validate(*doc), par, "subsumed root");
}

// Adaptive threshold (Options::spawn_threshold == 0, the default): the
// first Validate calibrates from a timed prefix walk, the result lands in
// [16, 4096], is cached across calls, and — because calibration counters
// are discarded — the report stays bit-identical to the serial engine's.
TEST(ParallelCastTest, AdaptiveThresholdCalibratesOnceAndMatchesSerial) {
  DtdPair p;
  p.Load("<!ELEMENT r (a*)><!ELEMENT a (b?)><!ELEMENT b EMPTY>",
         "<!ELEMENT r (a*)><!ELEMENT a (b*)><!ELEMENT b EMPTY>");
  std::string text = "<r>";
  for (int i = 0; i < 2000; ++i) text += "<a><b/></a>";
  text += "</r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());

  CastValidator serial(p.relations.get());
  ValidationReport s = serial.Validate(*doc);
  ASSERT_TRUE(s.valid);

  common::Executor executor(Threads(2));
  ParallelCastValidator parallel(p.relations.get(), &executor);  // default opts
  ParallelCastValidator::RunStats stats1;
  ValidationReport par = parallel.Validate(*doc, &stats1);
  ExpectSameReport(s, par, "adaptive, first call");
  EXPECT_GE(stats1.spawn_threshold, 16u);
  EXPECT_LE(stats1.spawn_threshold, 4096u);

  ParallelCastValidator::RunStats stats2;
  ValidationReport par2 = parallel.Validate(*doc, &stats2);
  ExpectSameReport(s, par2, "adaptive, cached call");
  EXPECT_EQ(stats2.spawn_threshold, stats1.spawn_threshold);

  // A fixed threshold is passed through untouched.
  ParallelCastValidator::Options fixed;
  fixed.spawn_threshold = 128;
  ParallelCastValidator parallel_fixed(p.relations.get(), &executor, fixed);
  ParallelCastValidator::RunStats stats3;
  ExpectSameReport(s, parallel_fixed.Validate(*doc, &stats3), "fixed");
  EXPECT_EQ(stats3.spawn_threshold, 128u);
}

// Root-level prologue failures (no root, undeclared labels) never reach
// the executor; reports must still match the serial engine's exactly.
TEST(ParallelCastTest, RootPrologueFailuresMatchSerial) {
  DtdPair p;
  p.Load("<!ELEMENT r (a)><!ELEMENT a EMPTY>",
         "<!ELEMENT other (a)><!ELEMENT a EMPTY>");
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());

  common::Executor executor(Threads(2));
  ParallelCastValidator parallel(p.relations.get(), &executor);
  CastValidator serial(p.relations.get());
  ParallelCastValidator::RunStats stats;
  ValidationReport par = parallel.Validate(*doc, &stats);
  ExpectSameReport(serial.Validate(*doc), par, "undeclared target root");
  EXPECT_FALSE(par.valid);
  EXPECT_EQ(stats.tasks, 0u);
}

}  // namespace
}  // namespace xmlreval::core
