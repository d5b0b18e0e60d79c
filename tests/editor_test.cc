#include "xml/editor.h"

#include <gtest/gtest.h>

#include <memory>

#include "automata/alphabet.h"
#include "tests/test_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlreval::xml {
namespace {

SerializeOptions Compact() {
  SerializeOptions options;
  options.pretty = false;
  options.xml_declaration = false;
  return options;
}

TEST(EditorTest, RenameRecordsOldLabel) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(a, "b"));
  EXPECT_EQ(doc.label(a), "b");
  ModificationIndex mods = editor.Seal();
  EXPECT_EQ(mods.Kind(a), DeltaKind::kRenamed);
  EXPECT_EQ(*mods.OldLabel(doc, a), "a");
  EXPECT_EQ(*mods.NewLabel(doc, a), "b");
  EXPECT_EQ(mods.update_count(), 1u);
}

TEST(EditorTest, DoubleRenameKeepsOriginalOldLabel) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(a, "b"));
  ASSERT_OK(editor.RenameElement(a, "c"));
  ModificationIndex mods = editor.Seal();
  EXPECT_EQ(*mods.OldLabel(doc, a), "a");
  EXPECT_EQ(*mods.NewLabel(doc, a), "c");
}

TEST(EditorTest, InsertedNodeHasNoOldLabel) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK_AND_ASSIGN(NodeId fresh, editor.InsertElementAfter(a, "x"));
  ModificationIndex mods = editor.Seal();
  EXPECT_EQ(mods.Kind(fresh), DeltaKind::kInserted);
  EXPECT_FALSE(mods.OldLabel(doc, fresh).has_value());
  EXPECT_EQ(*mods.NewLabel(doc, fresh), "x");
}

TEST(EditorTest, DeletedNodeStaysLinkedUntilCommit) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/><b/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.DeleteLeaf(a));
  // Still physically present (the Δ^a_ε encoding).
  EXPECT_EQ(doc.CountChildren(doc.root()), 2u);
  ModificationIndex mods = editor.Seal();
  EXPECT_TRUE(mods.IsDeleted(a));
  EXPECT_EQ(*mods.OldLabel(doc, a), "a");
  EXPECT_FALSE(mods.NewLabel(doc, a).has_value());
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r><b/></r>");
}

TEST(EditorTest, DeleteRequiresEffectiveLeaf) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a><b/></a></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  NodeId b = ElementChildren(doc, a)[0];
  DocumentEditor editor(&doc);
  EXPECT_EQ(editor.DeleteLeaf(a).code(), StatusCode::kFailedPrecondition);
  ASSERT_OK(editor.DeleteLeaf(b));
  // After deleting b, a is an EFFECTIVE leaf even though b is still linked.
  ASSERT_OK(editor.DeleteLeaf(a));
  editor.Seal();
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r/>");
}

TEST(EditorTest, CannotDeleteRoot) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r/>"));
  DocumentEditor editor(&doc);
  EXPECT_FALSE(editor.DeleteLeaf(doc.root()).ok());
}

TEST(EditorTest, InsertThenDeleteNeverExisted) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK_AND_ASSIGN(NodeId fresh, editor.InsertElementBefore(a, "x"));
  ASSERT_OK(editor.DeleteLeaf(fresh));
  ModificationIndex mods = editor.Seal();
  // Absent from BOTH projections.
  EXPECT_FALSE(mods.OldLabel(doc, fresh).has_value());
  EXPECT_FALSE(mods.NewLabel(doc, fresh).has_value());
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r><a/></r>");
}

TEST(EditorTest, RenameThenDeleteKeepsOriginalLabel) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(a, "b"));
  ASSERT_OK(editor.DeleteLeaf(a));
  ModificationIndex mods = editor.Seal();
  EXPECT_EQ(*mods.OldLabel(doc, a), "a");  // label in T, pre-rename
  EXPECT_FALSE(mods.NewLabel(doc, a).has_value());
}

TEST(EditorTest, UpdateTextMarksNode) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><q>5</q></r>"));
  NodeId q = ElementChildren(doc, doc.root())[0];
  NodeId text = doc.first_child(q);
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.UpdateText(text, "150"));
  EXPECT_EQ(doc.text(text), "150");
  ModificationIndex mods = editor.Seal();
  EXPECT_EQ(mods.Kind(text), DeltaKind::kTextEdited);
  EXPECT_TRUE(mods.SubtreeModified(q));
}

TEST(EditorTest, SealMarksTouchedNodesAndAncestors) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<r><a><x/></a><b><y/></b></r>"));
  auto kids = ElementChildren(doc, doc.root());
  NodeId y = ElementChildren(doc, kids[1])[0];
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(y, "z"));
  ModificationIndex mods = editor.Seal();
  EXPECT_TRUE(mods.SubtreeModified(doc.root()));
  EXPECT_TRUE(mods.SubtreeModified(kids[1]));
  EXPECT_TRUE(mods.SubtreeModified(y));
  EXPECT_FALSE(mods.SubtreeModified(kids[0]));
}

// A node inserted under a deleted one would survive Commit as the child of
// a removed node; all six inserts refuse such a parent.
TEST(EditorTest, InsertUnderDeletedNodeRejected) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/><b/></r>"));
  auto kids = ElementChildren(doc, doc.root());
  DocumentEditor editor(&doc);
  ASSERT_OK(editor.DeleteLeaf(kids[0]));
  EXPECT_EQ(editor.InsertElementFirstChild(kids[0], "x").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(editor.InsertTextFirstChild(kids[0], "t").status().code(),
            StatusCode::kFailedPrecondition);
  // The deleted node's siblings may still be inserted next to it.
  ASSERT_OK(editor.InsertElementAfter(kids[0], "y").status());
  editor.Seal();
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r><y/><b/></r>");

  ASSERT_OK_AND_ASSIGN(Document nested, ParseXml("<r><a><c/></a></r>"));
  NodeId a = ElementChildren(nested, nested.root())[0];
  NodeId c = ElementChildren(nested, a)[0];
  DocumentEditor nested_editor(&nested);
  ASSERT_OK(nested_editor.DeleteLeaf(c));
  ASSERT_OK(nested_editor.DeleteLeaf(a));
  EXPECT_EQ(nested_editor.InsertElementBefore(c, "x").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(nested_editor.InsertElementAfter(c, "x").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(nested_editor.InsertTextBefore(c, "t").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(nested_editor.InsertTextAfter(c, "t").status().code(),
            StatusCode::kFailedPrecondition);
  nested_editor.Seal();
  ASSERT_OK(nested_editor.Commit());
  EXPECT_EQ(Serialize(nested, Compact()), "<r/>");
}

TEST(EditorTest, OperationsRejectedAfterSeal) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  editor.Seal();
  EXPECT_EQ(editor.RenameElement(a, "b").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(editor.InsertElementAfter(a, "x").ok());
  EXPECT_FALSE(editor.DeleteLeaf(a).ok());
}

TEST(EditorTest, CommitRequiresSeal) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r/>"));
  DocumentEditor editor(&doc);
  EXPECT_EQ(editor.Commit().code(), StatusCode::kFailedPrecondition);
}

TEST(EditorTest, TextInsertions) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  NodeId a = ElementChildren(doc, doc.root())[0];
  DocumentEditor editor(&doc);
  ASSERT_OK_AND_ASSIGN(NodeId t, editor.InsertTextFirstChild(a, "42"));
  ModificationIndex mods = editor.Seal();
  EXPECT_TRUE(mods.IsInserted(t));
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r><a>42</a></r>");
}

TEST(EditorTest, OutOfAlphabetEditsYieldUnboundSymbols) {
  // Edits on a bound document may introduce labels outside the shared Σ
  // (Bind is find-only). The editor keeps the binding coherent: such
  // nodes carry kUnboundSymbol — the signal the update analyzer keys on
  // to refuse a safe/fatal verdict — and renaming back into Σ restores a
  // real symbol.
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r><a/></r>"));
  auto alphabet = std::make_shared<automata::Alphabet>();
  alphabet->Intern("r");
  alphabet->Intern("a");
  ASSERT_OK(doc.Bind(alphabet));
  NodeId a = ElementChildren(doc, doc.root())[0];
  ASSERT_EQ(doc.symbol(a), *alphabet->Find("a"));

  DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(a, "zzz_wild"));
  EXPECT_EQ(doc.symbol(a), automata::kUnboundSymbol);

  ASSERT_OK_AND_ASSIGN(NodeId wild,
                       editor.InsertElementFirstChild(doc.root(), "wild"));
  EXPECT_EQ(doc.symbol(wild), automata::kUnboundSymbol);

  ASSERT_OK(editor.RenameElement(a, "a"));
  EXPECT_EQ(doc.symbol(a), *alphabet->Find("a"));

  ModificationIndex mods = editor.Seal();
  EXPECT_TRUE(mods.IsInserted(wild));
  ASSERT_OK(editor.Commit());
  EXPECT_EQ(Serialize(doc, Compact()), "<r><wild/><a/></r>");
}

}  // namespace
}  // namespace xmlreval::xml
