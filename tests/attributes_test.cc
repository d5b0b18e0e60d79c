// End-to-end tests of attribute constraints — the extension beyond the
// paper's structural model: declaration via XSD, participation in R_sub /
// R_dis, checking in every validator, and repair by the corrector.

#include <gtest/gtest.h>

#include "core/cast_validator.h"
#include "core/corrector.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "core/relations.h"
#include "core/streaming_validator.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "xml/editor.h"
#include "xml/parser.h"

namespace xmlreval::core {
namespace {

using schema::Alphabet;
using schema::Schema;

// An order element with attributes: id required string, priority optional
// bounded integer.
constexpr const char* kAttrXsd = R"(
<schema>
  <element name="order" type="Order"/>
  <complexType name="Order">
    <sequence>
      <element name="sku" type="string"/>
    </sequence>
    <attribute name="id" type="string" use="required"/>
    <attribute name="priority" use="optional">
      <simpleType>
        <restriction base="integer">
          <minInclusive value="1"/>
          <maxInclusive value="5"/>
        </restriction>
      </simpleType>
    </attribute>
  </complexType>
</schema>)";

// Same structure, but priority becomes REQUIRED and its range tightens.
constexpr const char* kStrictAttrXsd = R"(
<schema>
  <element name="order" type="Order"/>
  <complexType name="Order">
    <sequence>
      <element name="sku" type="string"/>
    </sequence>
    <attribute name="id" type="string" use="required"/>
    <attribute name="priority" use="required">
      <simpleType>
        <restriction base="integer">
          <minInclusive value="1"/>
          <maxInclusive value="3"/>
        </restriction>
      </simpleType>
    </attribute>
  </complexType>
</schema>)";

struct Fixture {
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;

  void Load(const char* source_xsd, const char* target_xsd) {
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

TEST(AttributeSchemaTest, XsdParsesDeclarations) {
  auto alphabet = std::make_shared<Alphabet>();
  auto parsed = schema::ParseXsd(kAttrXsd, alphabet);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Schema schema = std::move(parsed).value();
  const schema::ComplexType& order =
      schema.complex_type(*schema.FindType("Order"));
  ASSERT_EQ(order.attributes.size(), 2u);
  EXPECT_TRUE(order.attributes.at("id").required);
  EXPECT_FALSE(order.attributes.at("priority").required);
  EXPECT_EQ(order.attributes.at("priority").type.kind,
            schema::AtomicKind::kInteger);
  EXPECT_FALSE(order.open_attributes);
}

TEST(AttributeSchemaTest, DtdTypesAreOpen) {
  auto alphabet = std::make_shared<Alphabet>();
  auto parsed = schema::ParseDtd("<!ELEMENT r (a)><!ELEMENT a EMPTY>",
                                 alphabet);
  ASSERT_TRUE(parsed.ok());
  Schema schema = std::move(parsed).value();
  EXPECT_TRUE(schema.complex_type(*schema.FindType("r")).open_attributes);
}

TEST(AttributeSchemaTest, AnyAttributeMakesTypeOpen) {
  auto alphabet = std::make_shared<Alphabet>();
  auto parsed = schema::ParseXsd(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="x" type="string"/></sequence>
        <anyAttribute/>
      </complexType>
    </schema>)",
                                 alphabet);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Schema schema = std::move(parsed).value();
  EXPECT_TRUE(schema.complex_type(*schema.FindType("R")).open_attributes);
}

TEST(AttributeFullValidationTest, ChecksPresenceValueAndClosedness) {
  auto alphabet = std::make_shared<Alphabet>();
  auto parsed = schema::ParseXsd(kAttrXsd, alphabet);
  ASSERT_TRUE(parsed.ok());
  Schema schema = std::move(parsed).value();
  FullValidator validator(&schema);
  auto check = [&](const char* text) {
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok());
    return validator.Validate(*doc);
  };
  EXPECT_TRUE(check("<order id=\"o1\"><sku>A</sku></order>").valid);
  EXPECT_TRUE(check("<order id=\"o1\" priority=\"3\"><sku>A</sku></order>")
                  .valid);
  // Missing required id.
  ValidationReport missing = check("<order><sku>A</sku></order>");
  EXPECT_FALSE(missing.valid);
  EXPECT_NE(missing.violation.find("required attribute 'id'"),
            std::string::npos);
  // Out-of-range priority.
  EXPECT_FALSE(
      check("<order id=\"x\" priority=\"9\"><sku>A</sku></order>").valid);
  // Undeclared attribute.
  ValidationReport undeclared =
      check("<order id=\"x\" color=\"red\"><sku>A</sku></order>");
  EXPECT_FALSE(undeclared.valid);
  EXPECT_NE(undeclared.violation.find("not declared"), std::string::npos);
}

TEST(AttributeRelationsTest, SubsumptionAccountsForAttributes) {
  Fixture f;
  f.Load(kAttrXsd, kStrictAttrXsd);
  schema::TypeId s = *f.source->FindType("Order");
  schema::TypeId t = *f.target->FindType("Order");
  // priority optional+wider in the source: not subsumed by the strict one
  // (a source-valid order without priority is target-invalid)...
  EXPECT_FALSE(f.relations->Subsumed(s, t));
  // ...but orders with priority in [1,3] satisfy both: not disjoint.
  EXPECT_FALSE(f.relations->Disjoint(s, t));
  // The reverse direction subsumes: required+narrow ⊆ optional+wide.
  ASSERT_OK_AND_ASSIGN(TypeRelations reverse,
                       TypeRelations::Compute(f.target.get(), f.source.get()));
  EXPECT_TRUE(reverse.Subsumed(t, s));
}

TEST(AttributeRelationsTest, RequiredAttributeCanForceDisjointness) {
  Fixture f;
  f.Load(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="x" type="string"/></sequence>
      </complexType>
    </schema>)",
         R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="x" type="string"/></sequence>
        <attribute name="version" type="integer" use="required"/>
      </complexType>
    </schema>)");
  schema::TypeId s = *f.source->FindType("R");
  schema::TypeId t = *f.target->FindType("R");
  // Source declares no attributes (closed): its instances can never carry
  // the required 'version' — the types are disjoint.
  EXPECT_TRUE(f.relations->Disjoint(s, t));
  CastValidator cast(f.relations.get());
  auto doc = xml::ParseXml("<r><x>1</x></r>");
  ASSERT_TRUE(doc.ok());
  ValidationReport report = cast.Validate(*doc);
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.counters.disjoint_rejects, 1u);
}

TEST(AttributeCastTest, RechecksOnNonSubsumedPairs) {
  Fixture f;
  f.Load(kAttrXsd, kStrictAttrXsd);
  CastValidator cast(f.relations.get());
  auto run = [&](const char* text) {
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(FullValidator(f.source.get()).Validate(*doc).valid);
    return cast.Validate(*doc);
  };
  EXPECT_TRUE(run("<order id=\"a\" priority=\"2\"><sku>S</sku></order>")
                  .valid);
  // Valid for source (priority optional) but target requires it.
  EXPECT_FALSE(run("<order id=\"a\"><sku>S</sku></order>").valid);
  // Priority 5 fits the source range, not the target's.
  EXPECT_FALSE(run("<order id=\"a\" priority=\"5\"><sku>S</sku></order>")
                   .valid);
}

TEST(AttributeStreamingTest, MatchesDomVerdicts) {
  Fixture f;
  f.Load(kAttrXsd, kStrictAttrXsd);
  CastValidator dom(f.relations.get());
  for (const char* text :
       {"<order id=\"a\" priority=\"2\"><sku>S</sku></order>",
        "<order id=\"a\"><sku>S</sku></order>",
        "<order id=\"a\" priority=\"4\"><sku>S</sku></order>"}) {
    auto doc = xml::ParseXml(text);
    ASSERT_TRUE(doc.ok());
    StreamingCastSession session(*f.relations);
    (void)session.Feed(text);  // a decided verdict is read from Finish
    const StreamingReport& streamed = session.Finish();
    ValidationReport reference = dom.Validate(*doc);
    EXPECT_EQ(streamed.valid, reference.valid) << text;
    // Both drivers read the attributes in place through the same check.
    EXPECT_EQ(streamed.violation, reference.violation) << text;
  }
}

TEST(AttributeModValidatorTest, EditSpineRechecksAttributes) {
  Fixture f;
  f.Load(kAttrXsd, kStrictAttrXsd);
  ModValidator validator(f.relations.get());
  // priority missing: source-valid, target-invalid; edit the sku text so
  // the root is on the modified spine and the attribute check fires there.
  auto doc = xml::ParseXml("<order id=\"a\"><sku>S</sku></order>");
  ASSERT_TRUE(doc.ok());
  xml::DocumentEditor editor(&*doc);
  xml::NodeId sku = xml::ElementChildren(*doc, doc->root())[0];
  ASSERT_OK(editor.UpdateText(doc->first_child(sku), "S2"));
  xml::ModificationIndex mods = editor.Seal();
  ValidationReport report = validator.Validate(*doc, mods);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.violation.find("priority"), std::string::npos);
}

TEST(AttributeCorrectorTest, RepairsAttributeViolations) {
  Fixture f;
  f.Load(kAttrXsd, kStrictAttrXsd);
  DocumentCorrector corrector(f.relations.get());
  // Missing required priority AND an out-of-range one in a second doc.
  auto doc = xml::ParseXml("<order id=\"a\"><sku>S</sku></order>");
  ASSERT_TRUE(doc.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  ASSERT_TRUE(report.changed());
  EXPECT_EQ(report.steps[0].kind, CorrectionStep::Kind::kSetAttribute);
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(*doc).valid);
  EXPECT_NE(doc->FindAttribute(doc->root(), "priority"), nullptr);

  auto doc2 = xml::ParseXml(
      "<order id=\"a\" priority=\"5\"><sku>S</sku></order>");
  ASSERT_TRUE(doc2.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report2, corrector.Correct(&*doc2));
  EXPECT_TRUE(report2.changed());
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(*doc2).valid);
  // The repaired value is inside [1,3].
  int v = std::stoi(*doc2->FindAttribute(doc2->root(), "priority"));
  EXPECT_GE(v, 1);
  EXPECT_LE(v, 3);
}

TEST(AttributeCorrectorTest, DropsUndeclaredAndFillsInserted) {
  Fixture f;
  // Target requires 'version' on a child the corrector must MATERIALIZE.
  f.Load(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="meta" type="Meta" minOccurs="0"/></sequence>
        <anyAttribute/>
      </complexType>
      <complexType name="Meta">
        <sequence/>
        <attribute name="version" type="integer" use="required"/>
      </complexType>
    </schema>)",
         R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="meta" type="Meta"/></sequence>
      </complexType>
      <complexType name="Meta">
        <sequence/>
        <attribute name="version" type="integer" use="required"/>
      </complexType>
    </schema>)");
  DocumentCorrector corrector(f.relations.get());
  // Source-valid: no meta child, stray attribute on r (source r is open).
  auto doc = xml::ParseXml("<r junk=\"1\"/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_OK_AND_ASSIGN(CorrectionReport report, corrector.Correct(&*doc));
  EXPECT_TRUE(FullValidator(f.target.get()).Validate(*doc).valid)
      << FullValidator(f.target.get()).Validate(*doc).violation;
  // junk removed, meta inserted WITH its required version attribute.
  EXPECT_EQ(doc->FindAttribute(doc->root(), "junk"), nullptr);
  auto kids = xml::ElementChildren(*doc, doc->root());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_NE(doc->FindAttribute(kids[0], "version"), nullptr);
}

}  // namespace
}  // namespace xmlreval::core

namespace xmlreval::core {
namespace {

// XSD `fixed` attribute values: presence-optional, value-pinned.
TEST(FixedAttributeTest, EnforcedByValidatorsAndRepairedByCorrector) {
  Fixture f;
  const char* fixed_xsd = R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="x" type="string"/></sequence>
        <attribute name="version" type="string" fixed="2.0"/>
        <attribute name="kind" type="string" use="required" fixed="po"/>
      </complexType>
    </schema>)";
  f.Load(fixed_xsd, fixed_xsd);
  FullValidator validator(f.target.get());
  auto check = [&](const char* text) {
    auto doc = xml::ParseXml(text);
    EXPECT_TRUE(doc.ok());
    return validator.Validate(*doc);
  };
  // Optional fixed attribute may be absent, or present with the value.
  EXPECT_TRUE(check("<r kind=\"po\"><x>a</x></r>").valid);
  EXPECT_TRUE(check("<r kind=\"po\" version=\"2.0\"><x>a</x></r>").valid);
  // Wrong fixed values rejected; missing required-fixed rejected.
  EXPECT_FALSE(check("<r kind=\"po\" version=\"3.0\"><x>a</x></r>").valid);
  EXPECT_FALSE(check("<r kind=\"invoice\"><x>a</x></r>").valid);
  EXPECT_FALSE(check("<r version=\"2.0\"><x>a</x></r>").valid);

  // Corrector pins wrong values to the fixed ones.
  DocumentCorrector corrector(f.relations.get());
  auto doc = xml::ParseXml("<r kind=\"po\" version=\"3.0\"><x>a</x></r>");
  ASSERT_TRUE(doc.ok());
  // Precondition needs source-validity; source == target here, so repair
  // against a deliberately-broken instance uses the open-enough source...
  // instead craft: source accepts any version (no fixed).
  Fixture g;
  g.Load(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence><element name="x" type="string"/></sequence>
        <attribute name="version" type="string"/>
        <attribute name="kind" type="string" use="required"/>
      </complexType>
    </schema>)",
         fixed_xsd);
  DocumentCorrector strict_corrector(g.relations.get());
  auto doc2 = xml::ParseXml("<r kind=\"invoice\" version=\"3.0\"><x>a</x></r>");
  ASSERT_TRUE(doc2.ok());
  ASSERT_TRUE(FullValidator(g.source.get()).Validate(*doc2).valid);
  auto report = strict_corrector.Correct(&*doc2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(FullValidator(g.target.get()).Validate(*doc2).valid);
  EXPECT_EQ(*doc2->FindAttribute(doc2->root(), "version"), "2.0");
  EXPECT_EQ(*doc2->FindAttribute(doc2->root(), "kind"), "po");
}

TEST(FixedAttributeTest, ParticipatesInRelations) {
  Fixture f;
  // Source: kind fixed "po"; target: kind fixed "invoice" and required on
  // both sides → no instance satisfies both → disjoint.
  f.Load(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence/>
        <attribute name="kind" type="string" use="required" fixed="po"/>
      </complexType>
    </schema>)",
         R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence/>
        <attribute name="kind" type="string" use="required" fixed="invoice"/>
      </complexType>
    </schema>)");
  schema::TypeId s = *f.source->FindType("R");
  schema::TypeId t = *f.target->FindType("R");
  EXPECT_TRUE(f.relations->Disjoint(s, t));
  EXPECT_FALSE(f.relations->Subsumed(s, t));

  // Same fixed value on both sides: subsumed.
  Fixture g;
  const char* same = R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence/>
        <attribute name="kind" type="string" use="required" fixed="po"/>
      </complexType>
    </schema>)";
  g.Load(same, same);
  EXPECT_TRUE(g.relations->Subsumed(*g.source->FindType("R"),
                                    *g.target->FindType("R")));
}

TEST(FixedAttributeTest, InvalidFixedValueRejectedAtBuild) {
  auto alphabet = std::make_shared<Alphabet>();
  Result<Schema> bad = schema::ParseXsd(R"(
    <schema>
      <element name="r" type="R"/>
      <complexType name="R">
        <sequence/>
        <attribute name="n" type="positiveInteger" fixed="zero"/>
      </complexType>
    </schema>)",
                                        alphabet);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidSchema);
}

}  // namespace
}  // namespace xmlreval::core
