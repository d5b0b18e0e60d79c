#include "core/cast_validator.h"

#include <gtest/gtest.h>

#include "core/full_validator.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/random_docs.h"
#include "xml/parser.h"

namespace xmlreval::core {
namespace {

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

TEST(CastValidatorTest, SameSchemaAlwaysAccepts) {
  DtdPair p;
  p.Load("<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>",
         "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>");
  auto doc = xml::ParseXml("<r><a>1</a><a>2</a></r>");
  ASSERT_TRUE(doc.ok());
  CastValidator cast(p.relations.get());
  ValidationReport r = cast.Validate(*doc);
  EXPECT_TRUE(r.valid);
  // Root pair is subsumed: the validator visits only the root.
  EXPECT_EQ(r.counters.nodes_visited, 1u);
  EXPECT_EQ(r.counters.subtrees_skipped, 1u);
}

TEST(CastValidatorTest, DisjointRootRejectsAtOnce) {
  DtdPair p;
  p.Load("<!ELEMENT r (a)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
         "<!ELEMENT r (b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>");
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  CastValidator cast(p.relations.get());
  ValidationReport r = cast.Validate(*doc);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.counters.nodes_visited, 1u);
  EXPECT_EQ(r.counters.disjoint_rejects, 1u);
  EXPECT_NE(r.violation.find("disjoint"), std::string::npos);
}

TEST(CastValidatorTest, RootNotDeclaredInTarget) {
  DtdPair p;
  p.Load("<!ELEMENT r (a)><!ELEMENT a EMPTY>",
         "<!ELEMENT other (a)><!ELEMENT a EMPTY>");
  auto doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  CastValidator cast(p.relations.get());
  ValidationReport r = cast.Validate(*doc);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.violation.find("target"), std::string::npos);
}

TEST(CastValidatorTest, ContentModelNarrowing) {
  // Source allows a*, target wants exactly two a's.
  DtdPair p;
  p.Load("<!ELEMENT r (a*)><!ELEMENT a EMPTY>",
         "<!ELEMENT r (a,a)><!ELEMENT a EMPTY>");
  CastValidator cast(p.relations.get());
  auto ok_doc = xml::ParseXml("<r><a/><a/></r>");
  ASSERT_TRUE(ok_doc.ok());
  EXPECT_TRUE(cast.Validate(*ok_doc).valid);
  auto bad_doc = xml::ParseXml("<r><a/></r>");
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_FALSE(cast.Validate(*bad_doc).valid);
  auto bad3 = xml::ParseXml("<r><a/><a/><a/></r>");
  ASSERT_TRUE(bad3.ok());
  EXPECT_FALSE(cast.Validate(*bad3).valid);
}

TEST(CastValidatorTest, SimpleValueRechecked) {
  // Same structure; target element content must be narrower... with DTDs
  // all PCDATA is string, so use XSD for the facet difference.
  auto alphabet = std::make_shared<Alphabet>();
  auto src = schema::ParseXsd(R"(
    <schema><element name="r" type="R"/>
      <complexType name="R"><sequence>
        <element name="v" type="integer"/>
      </sequence></complexType></schema>)",
                              alphabet);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto tgt = schema::ParseXsd(R"(
    <schema><element name="r" type="R"/>
      <complexType name="R"><sequence>
        <element name="v" type="positiveInteger"/>
      </sequence></complexType></schema>)",
                              alphabet);
  ASSERT_TRUE(tgt.ok()) << tgt.status().ToString();
  Schema source = std::move(src).value();
  Schema target = std::move(tgt).value();
  ASSERT_OK_AND_ASSIGN(TypeRelations relations,
                       TypeRelations::Compute(&source, &target));
  CastValidator cast(&relations);
  auto ok_doc = xml::ParseXml("<r><v>5</v></r>");
  ASSERT_TRUE(ok_doc.ok());
  EXPECT_TRUE(cast.Validate(*ok_doc).valid);
  auto bad_doc = xml::ParseXml("<r><v>-5</v></r>");
  ASSERT_TRUE(bad_doc.ok());
  ValidationReport r = cast.Validate(*bad_doc);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.counters.simple_checks, 1u);
}

TEST(CastValidatorTest, ImmediateContentOptionDoesNotChangeVerdicts) {
  DtdPair p;
  p.Load("<!ELEMENT r ((a,b)|(c,d))*><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
         "<!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
         "<!ELEMENT r ((a,b)*,(c,d)*)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
         "<!ELEMENT c EMPTY><!ELEMENT d EMPTY>");
  CastValidator with(p.relations.get());
  CastValidator::Options options;
  options.use_immediate_content = false;
  CastValidator without(p.relations.get(), options);
  for (const char* text :
       {"<r/>", "<r><a/><b/></r>", "<r><c/><d/><a/><b/></r>",
        "<r><a/><b/><c/><d/></r>", "<r><a/><b/><a/><b/><c/><d/></r>"}) {
    auto doc = xml::ParseXml(text);
    ASSERT_TRUE(doc.ok());
    ValidationReport r1 = with.Validate(*doc);
    ValidationReport r2 = without.Validate(*doc);
    EXPECT_EQ(r1.valid, r2.valid) << text;
    // The §4 machinery can only reduce DFA work.
    EXPECT_LE(r1.counters.dfa_steps, r2.counters.dfa_steps) << text;
  }
}

// Property: on documents sampled from the source schema, the cast verdict
// must equal the target full-validation verdict.
class CastAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static constexpr const char* kSchemas[] = {
      // 0: list of records with optional tail
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      // 1: same but tail required
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      // 2: at least one record, reversed fields
      "<!ELEMENT r (rec+)><!ELEMENT rec (v?, k)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      // 3: wrapped records
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, k?, v*)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
  };
};

TEST_P(CastAgreement, CastEqualsFullOnSampledDocuments) {
  auto [source_idx, target_idx] = GetParam();
  DtdPair p;
  schema::DtdParseOptions options;
  options.roots = {"r"};
  auto s = ParseDtd(kSchemas[source_idx], p.alphabet, options);
  ASSERT_TRUE(s.ok());
  p.source = std::make_unique<Schema>(std::move(s).value());
  auto t = ParseDtd(kSchemas[target_idx], p.alphabet, options);
  ASSERT_TRUE(t.ok());
  p.target = std::make_unique<Schema>(std::move(t).value());
  ASSERT_OK_AND_ASSIGN(TypeRelations relations, TypeRelations::Compute(
                                                    p.source.get(),
                                                    p.target.get()));
  CastValidator cast(&relations);
  FullValidator full(p.target.get());

  for (uint64_t seed = 1; seed <= 25; ++seed) {
    workload::RandomDocOptions doc_options;
    doc_options.seed = seed;
    doc_options.max_elements = 40;
    doc_options.root_label = "r";
    auto doc = workload::SampleDocument(*p.source, doc_options);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_TRUE(FullValidator(p.source.get()).Validate(*doc).valid)
        << "sampler produced a source-invalid document, seed=" << seed;
    ValidationReport cast_report = cast.Validate(*doc);
    ValidationReport full_report = full.Validate(*doc);
    EXPECT_EQ(cast_report.valid, full_report.valid)
        << "seed=" << seed << " cast='" << cast_report.violation << "' full='"
        << full_report.violation << "'";
    EXPECT_LE(cast_report.counters.nodes_visited,
              full_report.counters.nodes_visited)
        << "cast may never visit more than full validation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemaPairs, CastAgreement,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)));

// Reusing one CastScratch across documents — including across a failing
// run, which must leave the scratch clean — changes nothing about the
// reports.
TEST(CastValidatorTest, ScratchReuseMatchesPlainValidate) {
  DtdPair p;
  p.Load("<!ELEMENT r (a*, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>",
         "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>");
  CastValidator cast(p.relations.get());
  CastScratch scratch;
  for (const char* text : {"<r><a>1</a><a>2</a></r>", "<r><a>1</a><b/></r>",
                           "<r/>", "<r><b/></r>"}) {
    auto doc = xml::ParseXml(text);
    ASSERT_TRUE(doc.ok());
    ValidationReport plain = cast.Validate(*doc);
    ValidationReport reused = cast.Validate(*doc, &scratch);
    EXPECT_EQ(plain.valid, reused.valid) << text;
    EXPECT_EQ(plain.violation, reused.violation) << text;
    EXPECT_EQ(plain.violation_path.ToString(),
              reused.violation_path.ToString())
        << text;
    EXPECT_EQ(plain.counters.nodes_visited, reused.counters.nodes_visited)
        << text;
    EXPECT_EQ(plain.counters.dfa_steps, reused.counters.dfa_steps) << text;
  }
}

}  // namespace
}  // namespace xmlreval::core
