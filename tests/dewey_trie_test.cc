#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xml/dewey.h"
#include "xml/parser.h"

namespace xmlreval::xml {
namespace {

DeweyPath P(std::vector<uint32_t> components) {
  return DeweyPath(std::move(components));
}

TEST(DeweyPathTest, OfComputesOrdinals) {
  ASSERT_OK_AND_ASSIGN(Document doc,
                       ParseXml("<r><a/><b><c/><d/></b></r>"));
  NodeId root = doc.root();
  auto kids = ElementChildren(doc, root);
  auto grand = ElementChildren(doc, kids[1]);
  EXPECT_EQ(DeweyPath::Of(doc, root), P({}));
  EXPECT_EQ(DeweyPath::Of(doc, kids[0]), P({0}));
  EXPECT_EQ(DeweyPath::Of(doc, kids[1]), P({1}));
  EXPECT_EQ(DeweyPath::Of(doc, grand[0]), P({1, 0}));
  EXPECT_EQ(DeweyPath::Of(doc, grand[1]), P({1, 1}));
}

TEST(DeweyPathTest, OfCountsTextSiblings) {
  ParseOptions options;
  options.skip_whitespace_text = false;
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml("<r>x<a/>y<b/></r>", options));
  auto kids = ElementChildren(doc, doc.root());
  EXPECT_EQ(DeweyPath::Of(doc, kids[0]), P({1}));  // after text "x"
  EXPECT_EQ(DeweyPath::Of(doc, kids[1]), P({3}));
}

TEST(DeweyPathTest, PrefixAndOrdering) {
  EXPECT_LT(P({1}), P({1, 0}));
  EXPECT_LT(P({0, 9}), P({1}));
}

TEST(DeweyPathTest, ChildAndToString) {
  EXPECT_EQ(P({2, 0}).ToString(), "2.0");
  EXPECT_EQ(P({}).ToString(), "ε");
}

}  // namespace
}  // namespace xmlreval::xml
