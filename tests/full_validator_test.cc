#include "core/full_validator.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "schema/dtd_parser.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace xmlreval::core {
namespace {

using schema::Alphabet;
using schema::ParseDtd;

class FullValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alphabet_ = std::make_shared<Alphabet>();
    auto schema = ParseDtd(
        "<!ELEMENT library (book+, magazine*)>"
        "<!ELEMENT book (title, author+)>"
        "<!ELEMENT magazine (title)>"
        "<!ELEMENT title (#PCDATA)>"
        "<!ELEMENT author (#PCDATA)>",
        alphabet_);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    schema_ = std::make_unique<Schema>(std::move(schema).value());
  }

  ValidationReport Validate(const std::string& text) {
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    FullValidator validator(schema_.get());
    return validator.Validate(*doc);
  }

  std::shared_ptr<Alphabet> alphabet_;
  std::unique_ptr<Schema> schema_;
};

TEST_F(FullValidatorTest, AcceptsValidDocument) {
  ValidationReport r = Validate(
      "<library>"
      "<book><title>T1</title><author>A</author><author>B</author></book>"
      "<magazine><title>M</title></magazine>"
      "</library>");
  EXPECT_TRUE(r.valid) << r.violation;
  EXPECT_GT(r.counters.nodes_visited, 0u);
  EXPECT_GT(r.counters.dfa_steps, 0u);
  EXPECT_GT(r.counters.simple_checks, 0u);
}

TEST_F(FullValidatorTest, RejectsUndeclaredRoot) {
  ValidationReport r = Validate("<junk/>");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("root"), std::string::npos);
}

TEST_F(FullValidatorTest, RejectsContentModelViolation) {
  // library requires at least one book.
  ValidationReport r = Validate("<library/>");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("content model"), std::string::npos);
}

TEST_F(FullValidatorTest, RejectsWrongOrder) {
  ValidationReport r = Validate(
      "<library>"
      "<magazine><title>M</title></magazine>"
      "<book><title>T</title><author>A</author></book>"
      "</library>");
  EXPECT_FALSE(r.valid);
}

TEST_F(FullValidatorTest, RejectsUnknownElement) {
  ValidationReport r = Validate(
      "<library><book><title>T</title><author>A</author>"
      "<isbn>123</isbn></book></library>");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("isbn"), std::string::npos);
}

TEST_F(FullValidatorTest, RejectsElementUnderSimpleType) {
  ValidationReport r = Validate(
      "<library><book><title><b>no</b></title>"
      "<author>A</author></book></library>");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("simple"), std::string::npos);
}

TEST_F(FullValidatorTest, RejectsTextUnderComplexType) {
  ValidationReport r = Validate(
      "<library>stray text<book><title>T</title><author>A</author></book>"
      "</library>");
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("character data"), std::string::npos);
}

TEST_F(FullValidatorTest, ViolationPathPointsAtOffendingNode) {
  ValidationReport r = Validate(
      "<library>"
      "<book><title>T</title><author>A</author></book>"
      "<book><title>T2</title><oops/></book>"
      "</library>");
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.violation_path.ToString(), "1.1");  // second book, second child
}

TEST_F(FullValidatorTest, EmptySimpleContentIsValidString) {
  ValidationReport r = Validate(
      "<library><book><title/><author>A</author></book></library>");
  EXPECT_TRUE(r.valid) << r.violation;
}

TEST_F(FullValidatorTest, CountsAreExact) {
  // <library><book><title>T</title><author>A</author></book></library>
  // visits: library, book, title, text, author, text = 6 nodes.
  ValidationReport r = Validate(
      "<library><book><title>T</title><author>A</author></book></library>");
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.counters.elements_visited, 4u);
  EXPECT_EQ(r.counters.text_nodes_visited, 2u);
  EXPECT_EQ(r.counters.nodes_visited, 6u);
  // DFA steps: 1 (book under library) + 2 (title author) = 3.
  EXPECT_EQ(r.counters.dfa_steps, 3u);
  EXPECT_EQ(r.counters.simple_checks, 2u);
}

TEST_F(FullValidatorTest, ValidateSubtree) {
  auto doc = xml::ParseXml(
      "<library><book><title>T</title><author>A</author></book></library>");
  ASSERT_TRUE(doc.ok());
  FullValidator validator(schema_.get());
  xml::NodeId book = xml::ElementChildren(*doc, doc->root())[0];
  ValidationReport r =
      validator.ValidateSubtree(*doc, book, *schema_->FindType("book"));
  EXPECT_TRUE(r.valid);
  // Wrong type for the subtree:
  ValidationReport wrong =
      validator.ValidateSubtree(*doc, book, *schema_->FindType("magazine"));
  EXPECT_FALSE(wrong.valid);
}

// The walk keeps its pending nodes on the heap: a 200,000-level chain
// would overflow an 8 MiB native stack at one frame per level.
TEST(FullValidatorDepthTest, DeepChainValidatesWithoutRecursion) {
  auto alphabet = std::make_shared<Alphabet>();
  auto parsed = ParseDtd("<!ELEMENT n (n?)>", alphabet);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Schema schema = std::move(parsed).value();
  FullValidator validator(&schema);
  constexpr size_t kDepth = 200000;
  auto chain = [&](std::string_view bottom) {
    std::string text;
    text.reserve(kDepth * 7 + bottom.size());
    for (size_t i = 0; i < kDepth; ++i) text += "<n>";
    text += bottom;
    for (size_t i = 0; i < kDepth; ++i) text += "</n>";
    return text;
  };

  auto valid = xml::ParseXml(chain(""));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  ValidationReport r = validator.Validate(*valid);
  EXPECT_TRUE(r.valid) << r.violation;
  EXPECT_EQ(r.counters.elements_visited, kDepth);
  EXPECT_EQ(r.counters.dfa_steps, kDepth - 1);

  // A violation at the bottom is blamed at its full-depth path.
  auto invalid = xml::ParseXml(chain("<x/>"));
  ASSERT_TRUE(invalid.ok()) << invalid.status().ToString();
  ValidationReport bad = validator.Validate(*invalid);
  EXPECT_FALSE(bad.valid);
  EXPECT_NE(bad.violation.find("'x'"), std::string::npos) << bad.violation;
  EXPECT_EQ(bad.violation_path.depth(), kDepth);
}

}  // namespace
}  // namespace xmlreval::core
