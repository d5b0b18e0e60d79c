#include "core/streaming_validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "core/cast_validator.h"
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
};

// Feeds `text` to a session in `chunk`-byte pieces, stopping at the first
// decided Feed; the report comes from Finish either way.
StreamingReport FeedSession(const TypeRelations& relations,
                            std::string_view text, size_t chunk) {
  StreamingCastSession session(relations);
  for (size_t pos = 0; pos < text.size(); pos += chunk) {
    if (!session.Feed(text.substr(pos, std::min(chunk, text.size() - pos)))
             .ok()) {
      break;  // verdict decided early; Finish still yields the report
    }
  }
  return session.Finish();
}

StreamingReport FeedSession(const TypeRelations& relations,
                            std::string_view text) {
  return FeedSession(relations, text, std::max<size_t>(text.size(), 1));
}

TEST(StreamingCastTest, Experiment1IsConstantWork) {
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  uint64_t visited_small = 0, visited_large = 0;
  for (auto [items, out] :
       {std::pair<size_t, uint64_t*>{2, &visited_small},
        std::pair<size_t, uint64_t*>{500, &visited_large}}) {
    workload::PoGeneratorOptions options;
    options.item_count = items;
    xml::Document doc = workload::GeneratePurchaseOrder(options);
    std::string text = xml::Serialize(doc);
    StreamingReport report = FeedSession(*f.relations, text);
    ASSERT_TRUE(report.valid) << report.violation;
    *out = report.counters.nodes_visited;
    // Streaming keeps at most the open path; far below the node count.
    EXPECT_LE(report.max_live_frames, 6u);
  }
  EXPECT_EQ(visited_small, visited_large)
      << "experiment 1 streaming cast must not scale with the document";
}

TEST(StreamingCastTest, RejectsMissingBillTo) {
  Fixture f;
  f.LoadXsd(workload::kSourceXsd, workload::kTargetXsd);
  workload::PoGeneratorOptions options;
  options.item_count = 5;
  options.include_bill_to = false;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  StreamingReport report = FeedSession(*f.relations, xml::Serialize(doc));
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.violation.find("content model"), std::string::npos);
}

TEST(StreamingCastTest, Experiment2ChecksQuantities) {
  Fixture f;
  f.LoadXsd(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  workload::PoGeneratorOptions options;
  options.item_count = 30;
  options.quantity_max = 99;
  xml::Document doc = workload::GeneratePurchaseOrder(options);
  StreamingReport ok = FeedSession(*f.relations, xml::Serialize(doc));
  EXPECT_TRUE(ok.valid) << ok.violation;
  EXPECT_EQ(ok.counters.simple_checks, 30u);

  options.quantity_min = 150;
  options.quantity_max = 190;
  xml::Document bad = workload::GeneratePurchaseOrder(options);
  StreamingReport rejected = FeedSession(*f.relations, xml::Serialize(bad));
  EXPECT_FALSE(rejected.valid);
  EXPECT_NE(rejected.violation.find("maxExclusive"), std::string::npos);
}

// Agreement property: streaming cast == DOM cast on random documents.
class StreamingAgreement : public ::testing::TestWithParam<int> {};

TEST_P(StreamingAgreement, MatchesDomCastValidator) {
  auto alphabet = std::make_shared<Alphabet>();
  schema::DtdParseOptions roots;
  roots.roots = {"r"};
  auto s = ParseDtd(
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      alphabet, roots);
  ASSERT_TRUE(s.ok());
  Schema source = std::move(s).value();
  auto t = ParseDtd(
      "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      alphabet, roots);
  ASSERT_TRUE(t.ok());
  Schema target = std::move(t).value();
  ASSERT_OK_AND_ASSIGN(TypeRelations relations,
                       TypeRelations::Compute(&source, &target));
  CastValidator dom(&relations);

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 31 + GetParam();
    options.root_label = "r";
    options.max_elements = 30;
    auto doc = workload::SampleDocument(source, options);
    ASSERT_TRUE(doc.ok());
    std::string text = xml::Serialize(*doc);
    StreamingReport streamed = FeedSession(relations, text);
    ValidationReport reference = dom.Validate(*doc);
    EXPECT_EQ(streamed.valid, reference.valid)
        << "seed=" << seed << "\nstream: " << streamed.violation
        << "\ndom: " << reference.violation;
    if (streamed.valid) {
      // Same counting discipline: identical node-visit totals.
      EXPECT_EQ(streamed.counters.nodes_visited,
                reference.counters.nodes_visited);
      EXPECT_EQ(streamed.counters.subtrees_skipped,
                reference.counters.subtrees_skipped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingAgreement, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// StreamingCastSession: the incremental push API.

// A source/target pair whose `rec` declarations are identical, so every
// (rec, rec) pair is subsumed and sessions hand rec subtrees to the
// raw-byte skip scanner.
struct SubsumedFixture {
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;

  void Load() {
    schema::DtdParseOptions roots;
    roots.roots = {"r"};
    auto s = ParseDtd(
        "<!ELEMENT r (rec*)><!ELEMENT rec (k, v)>"
        "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
        alphabet, roots);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    source = std::make_unique<Schema>(std::move(s).value());
    auto t = ParseDtd(
        "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
        "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
        alphabet, roots);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    target = std::make_unique<Schema>(std::move(t).value());
    auto r = TypeRelations::Compute(source.get(), target.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    relations = std::make_unique<TypeRelations>(std::move(r).value());
  }
};

// The legacy reference is the DOM pipeline, ParseXml + CastValidator: a
// chunked session must match its verdict and visit counters, and the
// one-shot session's report, at every chunk size.
TEST(StreamingCastSessionTest, MatchesLegacyAcrossChunkSizes) {
  SubsumedFixture f;
  f.Load();
  CastValidator dom(f.relations.get());
  const char* docs[] = {
      "<r/>",
      "<r><rec><k>1</k><v>2</v></rec></r>",
      "<r><rec><k>1</k><v>2</v></rec><rec><k>3</k><v>4</v></rec></r>",
      "<r><other/></r>",                     // unbound label
      "<r><rec><k>1</k><v>2</v></rec>",      // truncated
  };
  for (const char* text : docs) {
    StreamingReport oneshot = FeedSession(*f.relations, text);
    auto doc = xml::ParseXml(text);
    if (doc.ok()) {
      ValidationReport reference = dom.Validate(*doc);
      EXPECT_EQ(oneshot.valid, reference.valid)
          << text << "\nsession: " << oneshot.violation
          << "\ndom: " << reference.violation;
      if (reference.valid) {
        EXPECT_EQ(oneshot.counters.nodes_visited,
                  reference.counters.nodes_visited)
            << text;
        EXPECT_EQ(oneshot.counters.subtrees_skipped,
                  reference.counters.subtrees_skipped)
            << text;
      }
    } else {
      EXPECT_FALSE(oneshot.valid) << text;
    }
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
      StreamingReport session = FeedSession(*f.relations, text, chunk);
      EXPECT_EQ(session.valid, oneshot.valid)
          << text << " chunk=" << chunk << "\nsession: " << session.violation
          << "\none-shot: " << oneshot.violation;
      EXPECT_EQ(session.counters.nodes_visited, oneshot.counters.nodes_visited)
          << text << " chunk=" << chunk;
      EXPECT_EQ(session.counters.subtrees_skipped,
                oneshot.counters.subtrees_skipped)
          << text << " chunk=" << chunk;
      EXPECT_EQ(session.max_live_frames, oneshot.max_live_frames)
          << text << " chunk=" << chunk;
      // Early aborts stop feeding mid-document; otherwise every byte is
      // accounted for.
      EXPECT_LE(session.bytes_fed, std::string_view(text).size());
      if (oneshot.valid) {
        EXPECT_EQ(session.bytes_fed, std::string_view(text).size());
      }
    }
  }
}

TEST(StreamingCastSessionTest, SubsumedSubtreesAreByteSkipped) {
  SubsumedFixture f;
  f.Load();
  std::string text = "<r>";
  for (int i = 0; i < 50; ++i) text += "<rec><k>key</k><v>value</v></rec>";
  text += "</r>";

  StreamingReport with_skip = FeedSession(*f.relations, text, 97);
  ASSERT_TRUE(with_skip.valid) << with_skip.violation;
  EXPECT_EQ(with_skip.counters.subtrees_skipped, 50u);
  // Each rec body (from after "<rec>" through "</rec>") bypasses the
  // tokenizer entirely.
  EXPECT_GT(with_skip.bytes_skipped, 50u * 20u);
  EXPECT_LT(with_skip.bytes_skipped, text.size());
  // Skipped subtrees never open frames: only the root is ever live.
  EXPECT_EQ(with_skip.max_live_frames, 1u);
}

TEST(StreamingCastSessionTest, LiveFramesTrackDepthNotSize) {
  // The target drops the <pad> sibling the source allows, so (n, n) is not
  // subsumed and every n opens a frame while it is open.
  auto alphabet = std::make_shared<Alphabet>();
  schema::DtdParseOptions roots;
  roots.roots = {"n"};
  auto s = ParseDtd("<!ELEMENT n (n*, pad*)><!ELEMENT pad EMPTY>", alphabet,
                    roots);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  Schema source = std::move(s).value();
  auto t = ParseDtd("<!ELEMENT n (n*)><!ELEMENT pad EMPTY>", alphabet, roots);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Schema target = std::move(t).value();
  ASSERT_OK_AND_ASSIGN(TypeRelations relations,
                       TypeRelations::Compute(&source, &target));

  // Wide: 1000 siblings, depth 2.
  std::string wide = "<n>";
  for (int i = 0; i < 1000; ++i) wide += "<n/>";
  wide += "</n>";
  StreamingReport wide_report = FeedSession(relations, wide, 64);
  ASSERT_TRUE(wide_report.valid) << wide_report.violation;
  EXPECT_EQ(wide_report.max_live_frames, 2u);

  // Deep: depth 1000.
  std::string deep;
  for (int i = 0; i < 1000; ++i) deep += "<n>";
  for (int i = 0; i < 1000; ++i) deep += "</n>";
  StreamingReport deep_report = FeedSession(relations, deep, 64);
  ASSERT_TRUE(deep_report.valid) << deep_report.violation;
  EXPECT_EQ(deep_report.max_live_frames, 1000u);
}

TEST(StreamingCastSessionTest, MalformedBytesInsideSkippedSubtreeRejected) {
  SubsumedFixture f;
  f.Load();
  // The rec subtree is only byte-scanned, but structural damage (a '<'
  // inside an attribute value) must still be caught.
  StreamingReport report = FeedSession(
      *f.relations, "<r><rec><k a=\"<\">1</k><v>2</v></rec></r>", 5);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.violation.find("parse-error"), std::string::npos)
      << report.violation;
}

TEST(StreamingCastSessionTest, ViolationPathMatchesDomValidator) {
  // Non-subsumed rec pair (source allows v to be absent, target does not),
  // so rec content is actually checked. Second rec (ordinal 1) is missing
  // <v>: the blamed element must match the DOM cast validator's Dewey path.
  auto alphabet = std::make_shared<Alphabet>();
  schema::DtdParseOptions roots;
  roots.roots = {"r"};
  auto s = ParseDtd(
      "<!ELEMENT r (rec*)><!ELEMENT rec (k, v?)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      alphabet, roots);
  ASSERT_TRUE(s.ok());
  Schema source = std::move(s).value();
  auto t = ParseDtd(
      "<!ELEMENT r (rec+)><!ELEMENT rec (k, v)>"
      "<!ELEMENT k (#PCDATA)><!ELEMENT v (#PCDATA)>",
      alphabet, roots);
  ASSERT_TRUE(t.ok());
  Schema target = std::move(t).value();
  ASSERT_OK_AND_ASSIGN(TypeRelations relations,
                       TypeRelations::Compute(&source, &target));

  const char* text =
      "<r><rec><k>1</k><v>2</v></rec><rec><k>3</k></rec></r>";
  auto doc = xml::ParseXml(text);
  ASSERT_TRUE(doc.ok());
  CastValidator dom(&relations);
  ValidationReport reference = dom.Validate(*doc);
  ASSERT_FALSE(reference.valid);

  StreamingReport session = FeedSession(relations, text, 3);
  ASSERT_FALSE(session.valid);
  ASSERT_TRUE(session.violation_path_known);
  EXPECT_EQ(xml::DeweyPath(session.violation_path).ToString(),
            reference.violation_path.ToString());
}

TEST(StreamingCastSessionTest, EarlyAbortLatchesStatus) {
  SubsumedFixture f;
  f.Load();
  StreamingCastSession session(*f.relations);
  ASSERT_OK(session.Feed("<r><oo"));  // tag still open: no verdict yet
  Status decided = session.Feed("ps></oops></r>");
  EXPECT_FALSE(decided.ok());
  EXPECT_TRUE(session.done());
  // Later feeds are no-ops returning the same status.
  Status again = session.Feed("<ignored/>");
  EXPECT_EQ(again.code(), decided.code());
  EXPECT_EQ(again.message(), decided.message());
  const StreamingReport& report = session.Finish();
  EXPECT_FALSE(report.valid);
}

TEST(StreamingCastSessionTest, FinishWithoutInputIsParseError) {
  SubsumedFixture f;
  f.Load();
  StreamingCastSession session(*f.relations);
  const StreamingReport& report = session.Finish();
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.bytes_fed, 0u);
}

}  // namespace
}  // namespace xmlreval::core
