#include "core/corrector.h"

#include <gtest/gtest.h>

#include "core/full_validator.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"
#include "workload/random_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlreval::core {
namespace {

using schema::Alphabet;
using schema::ParseDtd;
using testutil::CompileOrDie;
using testutil::Word;

// ---- MinimalStringRepair ---------------------------------------------------

std::vector<automata::Symbol> Apply(
    const std::vector<StringEditOp>& ops,
    std::span<const automata::Symbol> word) {
  std::vector<automata::Symbol> out;
  size_t pos = 0;
  for (const StringEditOp& op : ops) {
    while (pos < op.position) out.push_back(word[pos++]);
    switch (op.kind) {
      case StringEditOp::Kind::kKeep:
        out.push_back(word[pos++]);
        break;
      case StringEditOp::Kind::kDelete:
        ++pos;
        break;
      case StringEditOp::Kind::kInsert:
        out.push_back(op.symbol);
        break;
    }
  }
  while (pos < word.size()) out.push_back(word[pos++]);
  return out;
}

size_t CostOf(const std::vector<StringEditOp>& ops) {
  size_t cost = 0;
  for (const StringEditOp& op : ops) {
    if (op.kind != StringEditOp::Kind::kKeep) ++cost;
  }
  return cost;
}

TEST(MinimalStringRepairTest, AlreadyValidNeedsNoOps) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("(a,b,c)", &alphabet);
  std::vector<bool> all(alphabet.size(), true);
  ASSERT_OK_AND_ASSIGN(auto ops,
                       MinimalStringRepair(dfa, Word("abc", &alphabet), all));
  EXPECT_EQ(CostOf(ops), 0u);
  EXPECT_TRUE(dfa.Accepts(Apply(ops, Word("abc", &alphabet))));
}

TEST(MinimalStringRepairTest, SingleInsert) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("(a,b,c)", &alphabet);
  std::vector<bool> all(alphabet.size(), true);
  ASSERT_OK_AND_ASSIGN(auto ops,
                       MinimalStringRepair(dfa, Word("ac", &alphabet), all));
  EXPECT_EQ(CostOf(ops), 1u);
  EXPECT_TRUE(dfa.Accepts(Apply(ops, Word("ac", &alphabet))));
}

TEST(MinimalStringRepairTest, SingleDelete) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("(a,c)", &alphabet);
  alphabet.Intern("b");
  automata::Dfa padded = dfa.PaddedTo(alphabet.size());
  std::vector<bool> all(alphabet.size(), true);
  ASSERT_OK_AND_ASSIGN(auto ops,
                       MinimalStringRepair(padded, Word("abc", &alphabet), all));
  EXPECT_EQ(CostOf(ops), 1u);
  EXPECT_TRUE(padded.Accepts(Apply(ops, Word("abc", &alphabet))));
}

TEST(MinimalStringRepairTest, EmptyWordBuildsShortestString) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("(a,(b|c),a)", &alphabet);
  std::vector<bool> all(alphabet.size(), true);
  ASSERT_OK_AND_ASSIGN(auto ops, MinimalStringRepair(dfa, {}, all));
  EXPECT_EQ(CostOf(ops), 3u);
  EXPECT_TRUE(dfa.Accepts(Apply(ops, {})));
}

TEST(MinimalStringRepairTest, RespectsInsertableMask) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("((a|b),c)", &alphabet);
  std::vector<bool> no_a(alphabet.size(), true);
  no_a[*alphabet.Find("a")] = false;
  ASSERT_OK_AND_ASSIGN(auto ops,
                       MinimalStringRepair(dfa, Word("c", &alphabet), no_a));
  // The repair must use 'b', not 'a'.
  for (const StringEditOp& op : ops) {
    if (op.kind == StringEditOp::Kind::kInsert) {
      EXPECT_EQ(op.symbol, *alphabet.Find("b"));
    }
  }
  EXPECT_TRUE(dfa.Accepts(Apply(ops, Word("c", &alphabet))));
}

TEST(MinimalStringRepairTest, FailsWhenNoRepairExists) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie("(a,b)", &alphabet);
  std::vector<bool> none(alphabet.size(), false);
  // Cannot insert anything and the word is unfixable by deletes alone.
  Result<std::vector<StringEditOp>> ops =
      MinimalStringRepair(dfa, Word("b", &alphabet), none);
  ASSERT_FALSE(ops.ok());
  EXPECT_EQ(ops.status().code(), StatusCode::kFailedPrecondition);
}

// Property: repairs are valid and minimal (vs brute force over all words
// reachable with cost ≤ found cost).
class RepairProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(RepairProperty, RepairsAreValidAndMinimal) {
  automata::Alphabet alphabet;
  automata::Dfa dfa = CompileOrDie(GetParam(), &alphabet);
  std::vector<bool> all(alphabet.size(), true);
  testutil::ForAllWords(alphabet.size(), 4,
                        [&](const std::vector<automata::Symbol>& word) {
    ASSERT_OK_AND_ASSIGN(auto ops, MinimalStringRepair(dfa, word, all));
    std::vector<automata::Symbol> fixed = Apply(ops, word);
    ASSERT_TRUE(dfa.Accepts(fixed))
        << "repair of a word of length " << word.size() << " is invalid";
    size_t cost = CostOf(ops);
    if (dfa.Accepts(word)) {
      EXPECT_EQ(cost, 0u);
    } else {
      EXPECT_GE(cost, 1u);
      // Minimality spot-check: no single-op fix may exist if cost > 1.
      if (cost > 1) {
        bool one_op_fix = false;
        // All single deletions.
        for (size_t i = 0; i < word.size() && !one_op_fix; ++i) {
          std::vector<automata::Symbol> w = word;
          w.erase(w.begin() + i);
          one_op_fix = dfa.Accepts(w);
        }
        // All single insertions.
        for (size_t i = 0; i <= word.size() && !one_op_fix; ++i) {
          for (automata::Symbol s = 0; s < alphabet.size() && !one_op_fix;
               ++s) {
            std::vector<automata::Symbol> w = word;
            w.insert(w.begin() + i, s);
            one_op_fix = dfa.Accepts(w);
          }
        }
        EXPECT_FALSE(one_op_fix) << "repair used " << cost
                                 << " ops but a 1-op fix exists";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Dfas, RepairProperty,
                         ::testing::Values("(a,b,c)", "(a,b)*", "((a|b),c?)",
                                           "(a+,b?)", "((a,b)|(b,a))"));

// ---- DocumentCorrector ----------------------------------------------------

struct Fixture {
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;

  void LoadXsd(const char* source_xsd, const char* target_xsd) {
    auto s = schema::ParseXsd(source_xsd, alphabet);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    source = std::make_unique<Schema>(std::move(s).value());
    auto t = schema::ParseXsd(target_xsd, alphabet);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    target = std::make_unique<Schema>(std::move(t).value());
    auto r = TypeRelations::Compute(source.get(), target.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    relations = std::make_unique<TypeRelations>(std::move(r).value());
  }

  void LoadDtd(const char* source_dtd, const char* target_dtd) {
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

TEST(DocumentCorrectorTest, AlreadyValidDocumentUntouched) {
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  DocumentCorrector corrector(f.relations.get());
  workload::PoGeneratorOptions options;
  options.item_count = 5;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  std::string before = xml::Serialize(doc);
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&doc));
  EXPECT_FALSE(report.changed());
  EXPECT_EQ(xml::Serialize(doc), before);
}

TEST(DocumentCorrectorTest, InsertsMissingBillTo) {
  // The paper's Figure 1 cast failure, repaired: the corrector must insert
  // a minimal billTo (USAddress) block.
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  DocumentCorrector corrector(f.relations.get());
  workload::PoGeneratorOptions options;
  options.item_count = 5;
  options.include_bill_to = false;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  ASSERT_FALSE(FullValidator(f.target.get()).Validate(doc).valid);

  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&doc));
  ASSERT_TRUE(report.changed());
  EXPECT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].kind, CorrectionStep::Kind::kInsertElement);
  ValidationReport check = FullValidator(f.target.get()).Validate(doc);
  EXPECT_TRUE(check.valid) << check.violation;
  // The inserted block landed between shipTo and items.
  auto kids = xml::ElementChildren(doc, doc.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(doc.label(kids[1]), "billTo");
  EXPECT_EQ(xml::ElementChildren(doc, kids[1]).size(), 6u);  // full address
}

TEST(DocumentCorrectorTest, RewritesOutOfRangeQuantities) {
  Fixture f;
  f.LoadXsd(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  DocumentCorrector corrector(f.relations.get());
  workload::PoGeneratorOptions options;
  options.item_count = 6;
  options.quantity_min = 150;  // all violate maxExclusive=100
  options.quantity_max = 180;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&doc));
  EXPECT_EQ(report.steps.size(), 6u);
  for (const CorrectionStep& step : report.steps) {
    EXPECT_EQ(step.kind, CorrectionStep::Kind::kRewriteText);
  }
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(doc).valid);
}

TEST(DocumentCorrectorTest, DeletesDisallowedElements) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a, x?, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
            "<!ELEMENT x (y)><!ELEMENT y (#PCDATA)>",
            "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
            "<!ELEMENT x (y)><!ELEMENT y (#PCDATA)>");
  DocumentCorrector corrector(f.relations.get());
  auto doc = xml::ParseXml("<r><a/><x><y>deep</y></x><b/></r>");
  ASSERT_TRUE(doc.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].kind, CorrectionStep::Kind::kDeleteSubtree);
  xml::SerializeOptions compact;
  compact.pretty = false;
  compact.xml_declaration = false;
  EXPECT_EQ(xml::Serialize(*doc, compact), "<r><a/><b/></r>");
}

TEST(DocumentCorrectorTest, MinimalSubtreeSizes) {
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  DocumentCorrector corrector(f.relations.get());
  // USAddress: element + 6 children + 6 text leaves = 13.
  TypeId addr = *f.target->FindType("USAddress");
  EXPECT_EQ(*corrector.MinimalSubtreeSize(addr), 13u);
  // Items: element alone (item is optional).
  TypeId items = *f.target->FindType("Items");
  EXPECT_EQ(*corrector.MinimalSubtreeSize(items), 1u);
  // POType2: 1 + shipTo(13) + billTo(13) + items(1) = 28.
  TypeId po = *f.target->FindType("POType2");
  EXPECT_EQ(*corrector.MinimalSubtreeSize(po), 28u);
}

TEST(DocumentCorrectorTest, CorrectWithEditorLeavesDeltaEncoding) {
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  DocumentCorrector corrector(f.relations.get());
  workload::PoGeneratorOptions options;
  options.item_count = 2;
  options.include_bill_to = false;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  xml::DocumentEditor editor(&doc);
  ASSERT_OK_AND_ASSIGN(CorrectionReport report,
                       corrector.CorrectWithEditor(&doc, &editor));
  EXPECT_TRUE(report.changed());
  xml::ModificationIndex mods = editor.Seal();
  EXPECT_GT(mods.update_count(), 0u);
  ASSERT_OK(editor.Commit());
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(doc).valid);
}

TEST(DocumentCorrectorTest, RootNotInTargetFails) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a)><!ELEMENT a EMPTY>",
            "<!ELEMENT other (a)><!ELEMENT a EMPTY>");
  schema::DtdParseOptions unused;
  DocumentCorrector corrector(f.relations.get());
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  Result<CorrectionReport> report = corrector.Correct(&*doc);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DocumentCorrectorTest, AlreadyValidWideContentNeedsNoSearch) {
  // The kernel's content run accepts the entries, so no string repair
  // search runs: (100,001 positions × DFA states) would exceed its bound.
  Fixture f;
  f.LoadDtd("<!ELEMENT feed (entry*)><!ELEMENT entry EMPTY>",
            "<!ELEMENT feed (entry+)><!ELEMENT entry EMPTY>");
  DocumentCorrector corrector(f.relations.get());
  std::string text = "<feed>";
  for (int i = 0; i < 100000; ++i) text += "<entry/>";
  text += "</feed>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  EXPECT_EQ(report.steps.size(), 0u);
}

TEST(DocumentCorrectorTest, InsertsBetweenChecks) {
  // Each b needs a c, and each insert creates a node while later b's are
  // still to be checked. The parse leaves 1,001 rows in a 1,024-row column
  // block, so the 24th insert moves the columns the kernel reads.
  Fixture f;
  f.LoadDtd("<!ELEMENT r (b*)><!ELEMENT b (c?)><!ELEMENT c EMPTY>",
            "<!ELEMENT r (b*)><!ELEMENT b (c)><!ELEMENT c EMPTY>");
  DocumentCorrector corrector(f.relations.get());
  std::string text = "<r>";
  for (int i = 0; i < 1000; ++i) text += "<b/>";
  text += "</r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  ASSERT_EQ(report.steps.size(), 1000u);
  for (const CorrectionStep& step : report.steps) {
    EXPECT_EQ(step.kind, CorrectionStep::Kind::kInsertElement);
  }
  EXPECT_EQ(report.steps.back().where, "999.0");
  ValidationReport check = FullValidator(f.target.get()).Validate(*doc);
  EXPECT_TRUE(check.valid) << check.violation;
}

// Soundness property: for random source-valid documents across several
// schema pairs, Correct always yields a target-valid document.
class CorrectionSoundness
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static constexpr const char* kSchemas[] = {
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec*)><!ELEMENT rec (v?, k)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec, rec)><!ELEMENT rec (k)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
  };
};

TEST_P(CorrectionSoundness, CorrectedDocumentsAreTargetValid) {
  auto [source_idx, target_idx] = GetParam();
  Fixture f;
  schema::DtdParseOptions dtd_options;
  dtd_options.roots = {"r"};
  auto s = ParseDtd(kSchemas[source_idx], f.alphabet, dtd_options);
  ASSERT_TRUE(s.ok());
  f.source = std::make_unique<Schema>(std::move(s).value());
  auto t = ParseDtd(kSchemas[target_idx], f.alphabet, dtd_options);
  ASSERT_TRUE(t.ok());
  f.target = std::make_unique<Schema>(std::move(t).value());
  auto r = TypeRelations::Compute(f.source.get(), f.target.get());
  ASSERT_TRUE(r.ok());
  f.relations = std::make_unique<TypeRelations>(std::move(r).value());

  DocumentCorrector corrector(f.relations.get());
  FullValidator full(f.target.get());
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed;
    options.root_label = "r";
    options.max_elements = 25;
    auto doc = workload::SampleDocument(*f.source, options);
    ASSERT_TRUE(doc.ok());
    ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
    ValidationReport check = full.Validate(*doc);
    EXPECT_TRUE(check.valid)
        << "source=" << source_idx << " target=" << target_idx
        << " seed=" << seed << ": " << check.violation << " after "
        << report.steps.size() << " repairs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemaPairs, CorrectionSoundness,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)));

// The corrector walks one explicit stack and deletes subtrees in a loop, so
// chains as deep as FullValidatorDepthTest's correct in O(1) native stack.
class CorrectorDepthTest : public ::testing::Test {
 protected:
  static constexpr size_t kDepth = 200000;

  // kDepth nested c's around `bottom`, under `<top>` when it is non-empty.
  static std::string Chain(const std::string& bottom,
                           const std::string& top = "") {
    std::string text;
    text.reserve(kDepth * 7 + bottom.size() + 2 * top.size() + 5);
    if (!top.empty()) text += "<" + top + ">";
    for (size_t i = 0; i < kDepth; ++i) text += "<c>";
    text += bottom;
    for (size_t i = 0; i < kDepth; ++i) text += "</c>";
    if (!top.empty()) text += "</" + top + ">";
    return text;
  }
};

TEST_F(CorrectorDepthTest, DeepChainKeepsAndDeletesAtTheBottom) {
  Fixture f;
  f.LoadDtd("<!ELEMENT c (c?,x?)><!ELEMENT x EMPTY>", "<!ELEMENT c (c?)>");
  DocumentCorrector corrector(f.relations.get());
  auto doc = xml::ParseXml(Chain("<x/>"));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].kind, CorrectionStep::Kind::kDeleteSubtree);
  EXPECT_EQ(report.steps[0].detail, "remove 'x'");
  ValidationReport check = FullValidator(f.target.get()).Validate(*doc);
  EXPECT_TRUE(check.valid) << check.violation;
}

TEST_F(CorrectorDepthTest, DeepSubtreeDeleted) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (c?)><!ELEMENT c (c?)>",
            "<!ELEMENT r EMPTY><!ELEMENT c (c?)>");
  DocumentCorrector corrector(f.relations.get());
  auto doc = xml::ParseXml(Chain("", "r"));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].kind, CorrectionStep::Kind::kDeleteSubtree);
  EXPECT_EQ(report.steps[0].where, "0");
  EXPECT_FALSE(doc->HasChildren(doc->root()));
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(*doc).valid);
}

}  // namespace
}  // namespace xmlreval::core
