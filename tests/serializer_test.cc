#include "xml/serializer.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "xml/parser.h"

namespace xmlreval::xml {
namespace {

TEST(SerializerTest, EmitsDeclarationAndRoot) {
  Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("root")));
  std::string text = Serialize(doc);
  EXPECT_NE(text.find("<?xml version=\"1.0\""), std::string::npos);
  EXPECT_NE(text.find("<root/>"), std::string::npos);
}

TEST(SerializerTest, EscapesTextAndAttributes) {
  Document doc;
  NodeId root = doc.CreateElement("e");
  ASSERT_OK(doc.SetRoot(root));
  ASSERT_OK(doc.AddAttribute(root, "a", "x<y&\"z"));
  ASSERT_OK(doc.AppendChild(root, doc.CreateText("1<2&3")));
  std::string text = Serialize(doc);
  EXPECT_NE(text.find("a=\"x&lt;y&amp;&quot;z\""), std::string::npos);
  EXPECT_NE(text.find("1&lt;2&amp;3"), std::string::npos);
}

TEST(SerializerTest, SimpleContentStaysInline) {
  Document doc;
  NodeId root = doc.CreateElement("r");
  ASSERT_OK(doc.SetRoot(root));
  NodeId leaf = doc.CreateElement("leaf");
  ASSERT_OK(doc.AppendChild(root, leaf));
  ASSERT_OK(doc.AppendChild(leaf, doc.CreateText("42")));
  std::string text = Serialize(doc);
  EXPECT_NE(text.find("<leaf>42</leaf>"), std::string::npos);
}

TEST(SerializerTest, RoundTripPreservesStructure) {
  workload::PoGeneratorOptions options;
  options.item_count = 5;
  Document original = workload::GeneratePurchaseOrder(options);
  std::string text = Serialize(original);
  ASSERT_OK_AND_ASSIGN(Document reparsed, ParseXml(text));
  // Same shape: compare recursive (label, simple-content) structure.
  std::string again = Serialize(reparsed);
  EXPECT_EQ(text, again);
}

TEST(SerializerTest, CompactModeHasNoIndentation) {
  Document doc;
  NodeId root = doc.CreateElement("a");
  ASSERT_OK(doc.SetRoot(root));
  ASSERT_OK(doc.AppendChild(root, doc.CreateElement("b")));
  SerializeOptions options;
  options.pretty = false;
  options.xml_declaration = false;
  EXPECT_EQ(Serialize(doc, options), "<a><b/></a>");
}

TEST(SerializerTest, SubtreeSerialization) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<a><b><c>1</c></b></a>"));
  NodeId b = ElementChildren(doc, doc.root())[0];
  SerializeOptions options;
  options.pretty = false;
  options.xml_declaration = false;
  EXPECT_EQ(SerializeSubtree(doc, b, options), "<b><c>1</c></b>");
}

TEST(SerializerTest, DeepChainSerializesWithoutRecursion) {
  // Deeper than a recursive serializer's native stack allows; the parser
  // already handles it, so serialize -> reparse must too.
  constexpr int kDepth = 200000;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  text += "x";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml(text));
  SerializeOptions options;
  options.pretty = false;
  std::string serialized = Serialize(doc, options);
  const std::string expected =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + text;
  EXPECT_EQ(serialized.size(), expected.size());
  EXPECT_TRUE(serialized == expected);  // not EXPECT_EQ: 1.4 MB operands
  ASSERT_OK_AND_ASSIGN(Document reparsed, ParseXml(serialized));
  EXPECT_EQ(reparsed.NodeCount(), doc.NodeCount());
}

TEST(SerializerTest, DeepChainPrettyOutputStaysLinear) {
  // Indenting every level would write about depth² spaces (40 GB here);
  // past 64 levels the pretty output is compact.
  constexpr int kDepth = 200000;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml(text));
  std::string serialized = Serialize(doc);
  EXPECT_LT(serialized.size(), text.size() + 20000);
  EXPECT_NE(serialized.find("\n" + std::string(128, ' ') + "<d>"),
            std::string::npos);
  EXPECT_EQ(serialized.find("\n" + std::string(130, ' ')), std::string::npos);
  ASSERT_OK(ParseXml(serialized).status());
}

}  // namespace
}  // namespace xmlreval::xml
