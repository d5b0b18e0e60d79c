#include "xml/parser.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xml/tree.h"

namespace xmlreval::xml {
namespace {

TEST(XmlParserTest, ParsesMinimalDocument) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<root/>"));
  ASSERT_TRUE(doc.has_root());
  EXPECT_EQ(doc.label(doc.root()), "root");
  EXPECT_FALSE(doc.HasChildren(doc.root()));
}

TEST(XmlParserTest, ParsesNestedElementsAndText) {
  ASSERT_OK_AND_ASSIGN(
      Document doc, ParseXml("<a><b>hi</b><c><d>x</d></c></a>"));
  NodeId a = doc.root();
  auto children = ElementChildren(doc, a);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(doc.label(children[0]), "b");
  EXPECT_EQ(doc.SimpleContent(children[0]), "hi");
  auto grand = ElementChildren(doc, children[1]);
  ASSERT_EQ(grand.size(), 1u);
  EXPECT_EQ(doc.SimpleContent(grand[0]), "x");
}

TEST(XmlParserTest, ParsesAttributes) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<e name=\"v1\" other='v2' empty=\"\"/>"));
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "name"), "v1");
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "other"), "v2");
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "empty"), "");
}

TEST(XmlParserTest, RejectsDuplicateAttributes) {
  EXPECT_FALSE(ParseXml("<e a=\"1\" a=\"2\"/>").ok());
}

TEST(XmlParserTest, DecodesEntitiesAndCharRefs) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<e a=\"&lt;&amp;&gt;\">&quot;x&apos; &#65;&#x42;</e>"));
  EXPECT_EQ(*doc.FindAttribute(doc.root(), "a"), "<&>");
  EXPECT_EQ(doc.SimpleContent(doc.root()), "\"x' AB");
}

TEST(XmlParserTest, DecodesMultiByteCharRef) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<e>&#xE9;</e>"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "\xC3\xA9");  // é in UTF-8
}

TEST(XmlParserTest, RejectsUnknownEntities) {
  Result<Document> result = ParseXml("<e>&unknown;</e>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(XmlParserTest, HandlesCdata) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<e><![CDATA[a<b&c]]></e>"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "a<b&c");
}

TEST(XmlParserTest, SkipsCommentsAndPis) {
  ASSERT_OK_AND_ASSIGN(
      Document doc,
      ParseXml("<?xml version=\"1.0\"?><!-- c --><?pi data?>"
               "<e><!-- inner -->text<?p?></e><!-- after -->"));
  EXPECT_EQ(doc.SimpleContent(doc.root()), "text");
}

TEST(XmlParserTest, RejectsDoubleHyphenInComment) {
  EXPECT_FALSE(ParseXml("<e><!-- a -- b --></e>").ok());
}

TEST(XmlParserTest, SkipsWhitespaceTextByDefault) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<a>\n  <b/>\n  <c/>\n</a>"));
  EXPECT_EQ(doc.CountChildren(doc.root()), 2u);  // no text nodes
}

TEST(XmlParserTest, KeepsWhitespaceWhenAsked) {
  ParseOptions options;
  options.skip_whitespace_text = false;
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<a>\n  <b/>\n</a>", options));
  EXPECT_EQ(doc.CountChildren(doc.root()), 3u);  // ws, b, ws
}

TEST(XmlParserTest, WellFormednessErrors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                 // unclosed
  EXPECT_FALSE(ParseXml("<a></b>").ok());             // mismatched
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());            // two roots
  EXPECT_FALSE(ParseXml("text").ok());                // no element
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());        // valueless attribute
  EXPECT_FALSE(ParseXml("<a attr=v></a>").ok());      // unquoted value
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());      // interleaved
  EXPECT_FALSE(ParseXml("<1a/>").ok());               // bad name
}

TEST(XmlParserTest, ErrorsCarryLineAndColumn) {
  Result<Document> result = ParseXml("<a>\n  <b>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("3:"), std::string::npos)
      << result.status().message();
}

TEST(XmlParserTest, DeepNestingDoesNotOverflow) {
  // The parser keeps an explicit stack; 100k depth must not crash.
  std::string text;
  constexpr int kDepth = 100000;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml(text));
  EXPECT_EQ(doc.label(doc.root()), "d");
}

TEST(XmlParserTest, CoalescesAdjacentTextRuns) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<e>ab<![CDATA[cd]]>ef</e>"));
  EXPECT_EQ(doc.CountChildren(doc.root()), 1u);
  EXPECT_EQ(doc.SimpleContent(doc.root()), "abcdef");
}

}  // namespace
}  // namespace xmlreval::xml
