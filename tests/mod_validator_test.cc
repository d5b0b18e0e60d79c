#include "core/mod_validator.h"

#include <gtest/gtest.h>

#include "core/cast_validator.h"
#include "core/full_validator.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"
#include "workload/random_docs.h"
#include "workload/update_workload.h"
#include "xml/label_index.h"
#include "xml/parser.h"

namespace xmlreval::core {
namespace {

using schema::Alphabet;
using schema::ParseDtd;
using xml::DocumentEditor;
using xml::ModificationIndex;

struct Fixture {
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;

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
};

TEST(ModValidatorTest, NoEditsEqualsPlainCast) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>",
            "<!ELEMENT r (a+)><!ELEMENT a (#PCDATA)>");
  auto doc = xml::ParseXml("<r><a>1</a></r>");
  ASSERT_TRUE(doc.ok());
  DocumentEditor editor(&*doc);
  ModificationIndex mods = editor.Seal();
  ModValidator validator(f.relations.get());
  ValidationReport r = validator.Validate(*doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
}

// An empty session's walk is the cast's: same verdict, violation, path and
// counters, on a subsumed star feed and on both purchase-order pairs.
TEST(ModValidatorTest, EmptySessionMatchesCast) {
  auto expect_cast = [](const Fixture& f, xml::Document doc,
                        const std::string& what) {
    for (bool bind : {false, true}) {
      if (bind) ASSERT_OK(doc.Bind(f.alphabet));
      const ValidationReport cast =
          CastValidator(f.relations.get()).Validate(doc);
      DocumentEditor editor(&doc);
      const ModificationIndex mods = editor.Seal();
      const ValidationReport mod =
          ModValidator(f.relations.get()).Validate(doc, mods);
      const std::string where = what + (bind ? ", bound" : ", unbound");
      EXPECT_EQ(mod.valid, cast.valid) << where;
      EXPECT_EQ(mod.violation, cast.violation) << where;
      EXPECT_EQ(mod.violation_path.ToString(), cast.violation_path.ToString())
          << where;
      const ValidationCounters& a = mod.counters;
      const ValidationCounters& b = cast.counters;
      EXPECT_EQ(a.nodes_visited, b.nodes_visited) << where;
      EXPECT_EQ(a.elements_visited, b.elements_visited) << where;
      EXPECT_EQ(a.text_nodes_visited, b.text_nodes_visited) << where;
      EXPECT_EQ(a.subtrees_skipped, b.subtrees_skipped) << where;
      EXPECT_EQ(a.disjoint_rejects, b.disjoint_rejects) << where;
      EXPECT_EQ(a.dfa_steps, b.dfa_steps) << where;
      EXPECT_EQ(a.immediate_decisions, b.immediate_decisions) << where;
      EXPECT_EQ(a.simple_checks, b.simple_checks) << where;
      EXPECT_EQ(a.attr_checks, b.attr_checks) << where;
    }
  };

  Fixture star;
  const char* kStarDtd =
      "<!ELEMENT feed ((entry|note)*)><!ELEMENT entry (#PCDATA)>"
      "<!ELEMENT note (#PCDATA)><!ELEMENT meta (title)>"
      "<!ELEMENT title (#PCDATA)>";
  star.LoadDtd(kStarDtd, kStarDtd);
  std::string feed = "<feed>";
  for (int i = 0; i < 3072; ++i) {
    feed += (i % 3 != 0) ? "<entry>42</entry>" : "<note>n</note>";
  }
  feed += "</feed>";
  auto feed_doc = xml::ParseXml(feed);
  ASSERT_TRUE(feed_doc.ok());
  expect_cast(star, std::move(feed_doc).value(), "star");

  workload::PoGeneratorOptions po;
  po.item_count = 20;
  Fixture exp1;
  exp1.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  expect_cast(exp1, workload::GeneratePurchaseOrder(po), "experiment 1");
  po.include_bill_to = false;
  expect_cast(exp1, workload::GeneratePurchaseOrder(po),
              "experiment 1, no billTo");

  Fixture exp2;
  exp2.LoadXsd(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  po.include_bill_to = true;
  po.quantity_max = 99;
  expect_cast(exp2, workload::GeneratePurchaseOrder(po), "experiment 2");
  po.quantity_min = 150;
  po.quantity_max = 180;
  expect_cast(exp2, workload::GeneratePurchaseOrder(po),
              "experiment 2, quantities >= 100");
}

TEST(ModValidatorTest, InsertMakesInvalidDocumentValid) {
  // Source allows a*, target requires a+. Start with zero a's (invalid for
  // target), insert one — now valid.
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>",
            "<!ELEMENT r (a+)><!ELEMENT a (#PCDATA)>");
  auto doc = xml::ParseXml("<r/>");
  ASSERT_TRUE(doc.ok());
  ModValidator validator(f.relations.get());
  {
    DocumentEditor editor(&*doc);
    ModificationIndex empty = editor.Seal();
    EXPECT_FALSE(validator.Validate(*doc, empty).valid);
  }
  auto doc2 = xml::ParseXml("<r/>");
  ASSERT_TRUE(doc2.ok());
  DocumentEditor editor(&*doc2);
  ASSERT_OK(editor.InsertElementFirstChild(doc2->root(), "a").status());
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(*doc2, mods);
  EXPECT_TRUE(r.valid) << r.violation;
}

TEST(ModValidatorTest, DeleteBreaksValidity) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a,b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
            "<!ELEMENT r (a,b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>");
  auto doc = xml::ParseXml("<r><a/><b/></r>");
  ASSERT_TRUE(doc.ok());
  DocumentEditor editor(&*doc);
  ASSERT_OK(editor.DeleteLeaf(xml::ElementChildren(*doc, doc->root())[1]));
  ModificationIndex mods = editor.Seal();
  ModValidator validator(f.relations.get());
  ValidationReport r = validator.Validate(*doc, mods);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("content model"), std::string::npos);
}

TEST(ModValidatorTest, RenameHandledThroughProjections) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a|b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
            "<!ELEMENT r (b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>");
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  ModValidator validator(f.relations.get());
  DocumentEditor editor(&*doc);
  ASSERT_OK(editor.RenameElement(xml::ElementChildren(*doc, doc->root())[0],
                                 "b"));
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(*doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
}

TEST(ModValidatorTest, TextEditRevalidatesFacet) {
  Fixture f;
  f.LoadXsd(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  workload::PoGeneratorOptions options;
  options.item_count = 5;
  options.quantity_max = 50;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  ModValidator validator(f.relations.get());

  // Edit one quantity to 150: fine for the relaxed source, NOT for target.
  xml::LabelIndex index = xml::LabelIndex::Build(doc);
  xml::NodeId quantity = index.Instances("quantity")[2];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.UpdateText(doc.first_child(quantity), "150"));
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(doc, mods);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("maxExclusive"), std::string::npos);
}

TEST(ModValidatorTest, UnmodifiedSubtreesUseCastShortcuts) {
  Fixture f;
  f.LoadXsd(workload::kTargetXsd, workload::kTargetXsd);
  workload::PoGeneratorOptions options;
  options.item_count = 100;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  ModValidator validator(f.relations.get());

  // Edit one item's quantity; everything else must be skipped via R_sub.
  xml::LabelIndex index = xml::LabelIndex::Build(doc);
  xml::NodeId quantity = index.Instances("quantity")[50];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.UpdateText(doc.first_child(quantity), "42"));
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
  // Work is bounded by the spine to the edit plus one subsumption lookup
  // per child of each spine node (the 99 untouched items are each visited
  // once and skipped) — far below full validation, which descends into
  // every item subtree.
  ValidationReport full = FullValidator(f.target.get()).Validate(doc);
  EXPECT_LT(r.counters.nodes_visited, 130u);
  EXPECT_LT(r.counters.nodes_visited, full.counters.nodes_visited / 5);
  EXPECT_GE(r.counters.subtrees_skipped, 99u);
}

TEST(ModValidatorTest, InsertedSubtreeFullyValidated) {
  Fixture f;
  f.LoadDtd(
      "<!ELEMENT r (item*)><!ELEMENT item (k,v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (item*)><!ELEMENT item (k,v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>");
  auto doc = xml::ParseXml("<r><item><k>a</k><v>1</v></item></r>");
  ASSERT_TRUE(doc.ok());
  ModValidator validator(f.relations.get());

  // Insert a structurally INVALID item (missing v).
  DocumentEditor editor(&*doc);
  ASSERT_OK_AND_ASSIGN(
      xml::NodeId item,
      editor.InsertElementAfter(xml::ElementChildren(*doc, doc->root())[0],
                                "item"));
  ASSERT_OK_AND_ASSIGN(xml::NodeId k,
                       editor.InsertElementFirstChild(item, "k"));
  ASSERT_OK(editor.InsertTextFirstChild(k, "key").status());
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(*doc, mods);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("item"), std::string::npos);
}

TEST(ModValidatorTest, CrossSchemaCastWithEdits) {
  // The paper's full scenario: document valid under Fig 1a (no billTo),
  // user ADDS a billTo subtree, then casts to Fig 2 — valid.
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  workload::PoGeneratorOptions options;
  options.item_count = 10;
  options.include_bill_to = false;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  ModValidator validator(f.relations.get());
  {
    DocumentEditor probe(&doc);
    ModificationIndex empty = probe.Seal();
    EXPECT_FALSE(validator.Validate(doc, empty).valid);
  }
  DocumentEditor editor(&doc);
  xml::NodeId ship = xml::ElementChildren(doc, doc.root())[0];
  ASSERT_OK_AND_ASSIGN(xml::NodeId bill,
                       editor.InsertElementAfter(ship, "billTo"));
  for (const char* field :
       {"country", "zip", "state", "city", "street", "name"}) {
    ASSERT_OK_AND_ASSIGN(xml::NodeId e,
                         editor.InsertElementFirstChild(bill, field));
    ASSERT_OK(editor
                  .InsertTextFirstChild(
                      e, std::string(field) == "zip" ? "94103" : "x")
                  .status());
  }
  ModificationIndex mods = editor.Seal();
  ValidationReport r = validator.Validate(doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
}

// A shared alphabet can grow after the relations were computed (the
// service's registry interns every schema's labels into one Σ). A rename
// to such a label lies beyond every padded content automaton: it is
// reported, never fed to one.
TEST(ModValidatorTest, RenameToLabelInternedAfterRelations) {
  Fixture f;
  f.LoadDtd("<!ELEMENT r (a*)><!ELEMENT a EMPTY>",
            "<!ELEMENT r (a*)><!ELEMENT a EMPTY>");
  for (int i = 0; i < 64; ++i) f.alphabet->Intern("late" + std::to_string(i));
  auto doc = xml::ParseXml("<r><a/><a/></r>");
  ASSERT_TRUE(doc.ok());
  ASSERT_OK(doc->Bind(f.alphabet));
  DocumentEditor editor(&*doc);
  ASSERT_OK(editor.RenameElement(doc->first_child(doc->root()), "late63"));
  ModificationIndex mods = editor.Seal();
  ValidationReport r = ModValidator(f.relations.get()).Validate(*doc, mods);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("outside the schemas' alphabet"),
            std::string::npos)
      << r.violation;
  EXPECT_EQ(r.violation_path.ToString(), "0");
}

// Ground-truth property: for random documents and random edit batches, the
// incremental verdict must equal full target-validation of the committed
// document.
class ModAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ModAgreement, MatchesFullValidationOfCommittedDocument) {
  Fixture f;
  f.LoadDtd(
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>");
  ModValidator validator(f.relations.get());

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    workload::RandomDocOptions doc_options;
    doc_options.seed = seed * 1000 + GetParam();
    doc_options.max_elements = 30;
    doc_options.root_label = "r";
    auto doc = workload::SampleDocument(*f.source, doc_options);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();

    DocumentEditor editor(&*doc);
    workload::UpdateWorkloadOptions update_options;
    update_options.seed = seed * 77 + GetParam();
    update_options.edit_count = 1 + (seed % 5);
    update_options.label_pool = {"rec", "k", "v"};
    auto applied = workload::ApplyRandomUpdates(&*doc, &editor, update_options);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    ModificationIndex mods = editor.Seal();
    ValidationReport incremental = validator.Validate(*doc, mods);

    ASSERT_OK(editor.Commit());
    ValidationReport ground_truth = FullValidator(f.target.get()).Validate(*doc);

    EXPECT_EQ(incremental.valid, ground_truth.valid)
        << "seed=" << seed << " param=" << GetParam() << "\n  incremental: "
        << incremental.violation << "\n  ground truth: "
        << ground_truth.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModAgreement, ::testing::Range(0, 12));

// Same property on the paper's purchase-order schemas with facet edits.
class PoModAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PoModAgreement, MatchesGroundTruth) {
  Fixture f;
  f.LoadXsd(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  ModValidator validator(f.relations.get());

  workload::PoGeneratorOptions po_options;
  po_options.item_count = 12;
  po_options.seed = GetParam();
  po_options.quantity_max = 80;
  xml::Document doc = workload::GeneratePurchaseOrder(po_options);

  DocumentEditor editor(&doc);
  workload::UpdateWorkloadOptions update_options;
  update_options.seed = GetParam() * 13 + 5;
  update_options.edit_count = 3;
  auto applied = workload::ApplyRandomUpdates(&doc, &editor, update_options);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  ModificationIndex mods = editor.Seal();
  ValidationReport incremental = validator.Validate(doc, mods);
  ASSERT_OK(editor.Commit());
  ValidationReport ground_truth = FullValidator(f.target.get()).Validate(doc);
  EXPECT_EQ(incremental.valid, ground_truth.valid)
      << "param=" << GetParam() << "\n  incremental: " << incremental.violation
      << "\n  ground truth: " << ground_truth.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoModAgreement, ::testing::Range(1, 26));

// §3.3's walk keeps an explicit stack, so edits at the bottom of a chain as
// deep as FullValidatorDepthTest's validate in O(1) native stack, and
// Seal/Commit cost the chain's length, not its square.
class ModValidatorDepthTest : public ::testing::Test {
 protected:
  static constexpr size_t kDepth = 200000;

  void SetUp() override {
    f.LoadDtd("<!ELEMENT c (c?)>", "<!ELEMENT c (c?)>");
  }

  // A parsed chain of kDepth c's; *levels gets its nodes, root first.
  static xml::Document ParseChain(std::vector<xml::NodeId>* levels) {
    std::string text;
    text.reserve(kDepth * 7);
    for (size_t i = 0; i < kDepth; ++i) text += "<c>";
    for (size_t i = 0; i < kDepth; ++i) text += "</c>";
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    for (xml::NodeId n = doc->root(); n != xml::kInvalidNode;
         n = doc->first_child(n)) {
      levels->push_back(n);
    }
    EXPECT_EQ(levels->size(), kDepth);
    return std::move(doc).value();
  }

  Fixture f;
};

TEST_F(ModValidatorDepthTest, InsertAtTheBottomOfAParsedChain) {
  ModValidator validator(f.relations.get());
  {
    std::vector<xml::NodeId> levels;
    xml::Document doc = ParseChain(&levels);
    DocumentEditor editor(&doc);
    ASSERT_OK(editor.InsertElementFirstChild(levels.back(), "c").status());
    ModificationIndex mods = editor.Seal();
    ValidationReport r = validator.Validate(doc, mods);
    EXPECT_TRUE(r.valid) << r.violation;
    // Every level is on the modified spine; the new leaf is validated
    // explicitly.
    EXPECT_EQ(r.counters.elements_visited, kDepth + 1);
  }
  // A violation at the bottom is blamed at its full-depth path.
  std::vector<xml::NodeId> levels;
  xml::Document doc = ParseChain(&levels);
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.InsertElementFirstChild(levels.back(), "x").status());
  ModificationIndex mods = editor.Seal();
  ValidationReport bad = validator.Validate(doc, mods);
  EXPECT_FALSE(bad.valid);
  EXPECT_NE(bad.violation.find("'x'"), std::string::npos) << bad.violation;
  EXPECT_EQ(bad.violation_path.depth(), kDepth);
}

TEST_F(ModValidatorDepthTest, ChainInsertedLevelByLevel) {
  auto doc = xml::ParseXml("<c/>");
  ASSERT_TRUE(doc.ok());
  DocumentEditor editor(&*doc);
  xml::NodeId bottom = doc->root();
  for (size_t i = 1; i < kDepth; ++i) {
    ASSERT_OK_AND_ASSIGN(bottom, editor.InsertElementFirstChild(bottom, "c"));
  }
  ModificationIndex mods = editor.Seal();
  EXPECT_TRUE(mods.SubtreeModified(doc->root()));
  ValidationReport r = ModValidator(f.relations.get()).Validate(*doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
  EXPECT_EQ(r.counters.elements_visited, kDepth);
  ASSERT_OK(editor.Commit());
}

TEST_F(ModValidatorDepthTest, ParsedChainDeletedBottomUpThenCommitted) {
  std::vector<xml::NodeId> levels;
  xml::Document doc = ParseChain(&levels);
  DocumentEditor editor(&doc);
  for (size_t i = kDepth - 1; i > 0; --i) {
    ASSERT_OK(editor.DeleteLeaf(levels[i]));
  }
  ModificationIndex mods = editor.Seal();
  ValidationReport r = ModValidator(f.relations.get()).Validate(doc, mods);
  EXPECT_TRUE(r.valid) << r.violation;
  // The root, and the deleted child whose label fed Proj_old.
  EXPECT_EQ(r.counters.elements_visited, 2u);
  ASSERT_OK(editor.Commit());
  EXPECT_FALSE(doc.HasChildren(doc.root()));
}

}  // namespace
}  // namespace xmlreval::core

namespace xmlreval::core {
namespace {

// §4.3's direction choice: with reverse automata prebuilt, an append-heavy
// edit is verified by scanning backward over the few changed symbols
// instead of forward over the whole child list.
TEST(ModValidatorReverseTest, AppendScansBackward) {
  Fixture f;
  auto alphabet = f.alphabet;
  schema::DtdParseOptions roots;
  roots.roots = {"r"};
  auto s = schema::ParseDtd("<!ELEMENT r (item*)><!ELEMENT item (#PCDATA)>",
                            alphabet, roots);
  ASSERT_TRUE(s.ok());
  f.source = std::make_unique<Schema>(std::move(s).value());
  auto t = schema::ParseDtd("<!ELEMENT r (item+)><!ELEMENT item (#PCDATA)>",
                            alphabet, roots);
  ASSERT_TRUE(t.ok());
  f.target = std::make_unique<Schema>(std::move(t).value());

  TypeRelations::Options forward_only;
  auto rel_fwd = TypeRelations::Compute(f.source.get(), f.target.get(),
                                        forward_only);
  ASSERT_TRUE(rel_fwd.ok());
  TypeRelations::Options with_reverse = forward_only;
  with_reverse.build_reverse_automata = true;
  auto rel_rev = TypeRelations::Compute(f.source.get(), f.target.get(),
                                        with_reverse);
  ASSERT_TRUE(rel_rev.ok());
  ASSERT_NE(rel_rev->ReversePairAutomaton(*f.source->FindType("r"),
                                          *f.target->FindType("r")),
            nullptr);

  auto run = [&](const TypeRelations& relations) {
    // 400 items, append one at the END.
    std::string text = "<r>";
    for (int i = 0; i < 400; ++i) text += "<item>x</item>";
    text += "</r>";
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok());
    xml::DocumentEditor editor(&*doc);
    xml::NodeId last = doc->last_child(doc->root());
    auto inserted = editor.InsertElementAfter(last, "item");
    EXPECT_TRUE(inserted.ok());
    EXPECT_TRUE(editor.InsertTextFirstChild(*inserted, "y").ok());
    xml::ModificationIndex mods = editor.Seal();
    ModValidator validator(&relations);
    return validator.Validate(*doc, mods);
  };

  ValidationReport forward = run(*rel_fwd);
  ValidationReport backward = run(*rel_rev);
  ASSERT_TRUE(forward.valid) << forward.violation;
  ASSERT_TRUE(backward.valid) << backward.violation;
  // Forward must re-scan the unmodified 400-symbol prefix; backward decides
  // within a few symbols of the appended tail.
  EXPECT_GT(forward.counters.dfa_steps, 300u);
  EXPECT_LT(backward.counters.dfa_steps, 20u);
}

// Agreement must be unaffected by the reverse machinery.
TEST(ModValidatorReverseTest, VerdictsUnchangedWithReverseAutomata) {
  Fixture f;
  f.LoadDtd(
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>");
  TypeRelations::Options with_reverse;
  with_reverse.build_reverse_automata = true;
  auto rel_rev = TypeRelations::Compute(f.source.get(), f.target.get(),
                                        with_reverse);
  ASSERT_TRUE(rel_rev.ok());
  ModValidator plain(f.relations.get());
  ModValidator reversed(&*rel_rev);

  for (uint64_t seed = 1; seed <= 15; ++seed) {
    workload::RandomDocOptions doc_options;
    doc_options.seed = seed * 101;
    doc_options.max_elements = 30;
    doc_options.root_label = "r";
    auto doc1 = workload::SampleDocument(*f.source, doc_options);
    ASSERT_TRUE(doc1.ok());
    auto doc2 = workload::SampleDocument(*f.source, doc_options);
    ASSERT_TRUE(doc2.ok());

    auto edit = [&](xml::Document* doc, const TypeRelations& relations) {
      xml::DocumentEditor editor(doc);
      workload::UpdateWorkloadOptions update_options;
      update_options.seed = seed * 7;
      update_options.edit_count = 2;
      update_options.label_pool = {"rec", "k", "v"};
      auto applied = workload::ApplyRandomUpdates(doc, &editor, update_options);
      EXPECT_TRUE(applied.ok());
      xml::ModificationIndex mods = editor.Seal();
      ModValidator validator(&relations);
      return validator.Validate(*doc, mods).valid;
    };
    EXPECT_EQ(edit(&*doc1, *f.relations), edit(&*doc2, *rel_rev))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace xmlreval::core
