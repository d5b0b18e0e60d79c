#include "xml/push_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tests/test_util.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

// Records events as compact strings: "+tag a=v", "-tag", "t:text", "d:name".
class Recorder : public SaxHandler {
 public:
  Status Doctype(std::string_view name, std::string_view subset) override {
    events.push_back("d:" + std::string(name) + "[" + std::string(subset) +
                     "]");
    return Status::OK();
  }
  Status StartElement(std::string_view name,
                      const std::vector<SaxAttribute>& attrs) override {
    std::string e = "+" + std::string(name);
    for (const SaxAttribute& a : attrs) {
      e += " " + std::string(a.name) + "=" + std::string(a.value);
    }
    events.push_back(e);
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    events.push_back("-" + std::string(name));
    return Status::OK();
  }
  Status Characters(std::string_view text) override {
    events.push_back("t:" + std::string(text));
    return Status::OK();
  }

  std::vector<std::string> events;
};

struct PushOutcome {
  Status status = Status::OK();
  std::vector<std::string> events;
  uint64_t peak_carry = 0;
};

PushOutcome RunPush(std::string_view doc, size_t chunk,
                    const ParseOptions& options = {}) {
  Recorder recorder;
  PushParser parser(&recorder, options);
  PushOutcome out;
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    Status s = parser.Feed(doc.substr(pos, std::min(chunk, doc.size() - pos)));
    if (!s.ok()) {
      out.status = s;
      break;
    }
  }
  if (out.status.ok()) out.status = parser.Finish();
  out.events = std::move(recorder.events);
  out.peak_carry = parser.peak_carry_bytes();
  return out;
}

const size_t kChunks[] = {1, 2, 3, 5, 17, 4096};

// For every chunking, the push parser must agree with its own one-shot run
// byte for byte: events, status code and error message, whose offsets must
// not depend on chunk boundaries. Returns the one-shot outcome.
PushOutcome ExpectChunkingInvariant(std::string_view doc,
                                    const ParseOptions& options) {
  PushOutcome oneshot = RunPush(doc, doc.size() ? doc.size() : 1, options);
  for (size_t chunk : kChunks) {
    PushOutcome chunked = RunPush(doc, chunk, options);
    EXPECT_EQ(chunked.status.code(), oneshot.status.code())
        << doc << " chunk=" << chunk;
    EXPECT_EQ(chunked.status.message(), oneshot.status.message())
        << doc << " chunk=" << chunk;
    EXPECT_EQ(chunked.events, oneshot.events) << doc << " chunk=" << chunk;
  }
  return oneshot;
}

// The expected events and status codes below are pinned literals, recorded
// from the recursive-descent tokenizer that ParseXmlEvents ran on before it
// became one whole-buffer PushParser Feed; PushParser (every chunking) and
// ParseXmlEvents must both reproduce them.
void ExpectEvents(std::string_view doc,
                  const std::vector<std::string>& expected,
                  const ParseOptions& options = {}) {
  PushOutcome oneshot = ExpectChunkingInvariant(doc, options);
  EXPECT_TRUE(oneshot.status.ok()) << doc << ": " << oneshot.status;
  EXPECT_EQ(oneshot.events, expected) << doc;
  Recorder whole;
  Status whole_status = ParseXmlEvents(doc, &whole, options);
  EXPECT_TRUE(whole_status.ok()) << doc << ": " << whole_status;
  EXPECT_EQ(whole.events, expected) << doc;
}

void ExpectRejected(std::string_view doc, StatusCode expected) {
  PushOutcome oneshot = ExpectChunkingInvariant(doc, {});
  EXPECT_EQ(oneshot.status.code(), expected) << doc;
  Recorder whole;
  EXPECT_EQ(ParseXmlEvents(doc, &whole).code(), expected) << doc;
}

using Events = std::vector<std::string>;

TEST(PushParserTest, ValidCorpusParity) {
  ExpectEvents("<a/>", Events{"+a", "-a"});
  ExpectEvents("<a x=\"1\" y='two'><b>hi</b><c/></a>",
               Events{"+a x=1 y=two", "+b", "t:hi", "-b", "+c", "-c", "-a"});
  ExpectEvents(
      "<?xml version=\"1.0\"?>\n<!-- head --><root>text</root>\n"
      "<!-- tail -->",
      Events{"+root", "t:text", "-root"});
  ExpectEvents("<!DOCTYPE note [<!ELEMENT note EMPTY>]><note/>",
               Events{"d:note[<!ELEMENT note EMPTY>]", "+note", "-note"});
  ExpectEvents("<!DOCTYPE r SYSTEM \"some>file.dtd\"><r/>",
               Events{"d:r[]", "+r", "-r"});
  ExpectEvents("<!DOCTYPE html PUBLIC \"-//W3C\" \"http://x\"><html/>",
               Events{"d:html[]", "+html", "-html"});
  ExpectEvents("<a>one<!-- gap -->two</a>", Events{"+a", "t:onetwo", "-a"});
  ExpectEvents("<a>pre<![CDATA[ <raw> & stuff ]]>post</a>",
               Events{"+a", "t:pre <raw> & stuff post", "-a"});
  ExpectEvents("<a>x<?pi data?>y</a>", Events{"+a", "t:xy", "-a"});
  ExpectEvents("<a>&lt;&amp;&gt;&quot;&apos;</a>",
               Events{"+a", "t:<&>\"'", "-a"});
  ExpectEvents("<a>&#65;&#x42;&#x1F600;</a>",
               Events{"+a", "t:AB\xF0\x9F\x98\x80", "-a"});
  // Leading zeros do not count against a reference's length bound.
  ExpectEvents("<a>&#000000000000000065;&#x00000000000000042;</a>",
               Events{"+a", "t:AB", "-a"});
  ExpectEvents("<a attr=\"a&amp;b&#33;\">v</a>",
               Events{"+a attr=a&b!", "t:v", "-a"});
  ExpectEvents("<a>\n  <b/>\n</a>", Events{"+a", "+b", "-b", "-a"});
  ExpectEvents("<deep><deep><deep>x</deep></deep></deep>",
               Events{"+deep", "+deep", "+deep", "t:x", "-deep", "-deep",
                      "-deep"});
  ExpectEvents("<a><![CDATA[]]]></a>", Events{"+a", "t:]", "-a"});
  ExpectEvents("<a><![CDATA[a]]b]]>c</a>", Events{"+a", "t:a]]bc", "-a"});
}

TEST(PushParserTest, WhitespaceModeParity) {
  ParseOptions keep;
  keep.skip_whitespace_text = false;
  ExpectEvents("<a>\n<b/> </a>", Events{"+a", "t:\n", "+b", "-b", "t: ", "-a"},
               keep);
  ExpectEvents("<a> mixed <b/>\n\t</a>",
               Events{"+a", "t: mixed ", "+b", "-b", "t:\n\t", "-a"}, keep);
}

TEST(PushParserTest, MalformedCorpusParity) {
  const StatusCode kParse = StatusCode::kParseError;
  ExpectRejected("<a><b></a></b>", kParse);
  ExpectRejected("<a>text", kParse);
  ExpectRejected("<a x=\"1\" x=\"2\"/>", kParse);
  ExpectRejected("<e a=\"1\" a=\"2\"/>", kParse);
  ExpectRejected("<a x=\"<\"/>", kParse);
  ExpectRejected("<a></a><b/>", kParse);
  ExpectRejected("<a>tail</a>junk", kParse);
  ExpectRejected("<a><!-- -- --></a>", kParse);
  ExpectRejected("<a>&undefined;</a>", StatusCode::kUnsupported);
  ExpectRejected("<a>&" + std::string(300, 'e') + ";</a>",
                 StatusCode::kUnsupported);
  ExpectRejected("<a>&" + std::string(300, 'e') + "</a>", kParse);
  ExpectRejected("<a>&#xZZ;</a>", kParse);
  ExpectRejected("<a>&#;</a>", kParse);
  ExpectRejected("<a><3/></a>", kParse);
  ExpectRejected("text only", kParse);
  ExpectRejected("<a x=1/>", kParse);
  ExpectRejected("<a x></a>", kParse);
  ExpectRejected("</a>", kParse);
  ExpectRejected("<a/><!-- ok --><![CDATA[no]]>", kParse);
  ExpectRejected("<a>&#1114112;</a>", kParse);
  ExpectRejected("<a>&#x110000;</a>", kParse);
  ExpectRejected("<a>&#00000000000000001114112;</a>", kParse);
}

TEST(PushParserTest, DuplicateAttributeInAHugeTag) {
  // 40,000 distinct attributes in one start tag parse; ended by a
  // duplicate of the first name, the tag fails right after that
  // duplicate's closing quote, as it does in a tag with two attributes.
  std::string tag = "<e";
  for (int k = 0; k < 40000; ++k) tag += " a" + std::to_string(k) + "=\"v\"";
  PushOutcome accepted = ExpectChunkingInvariant(tag + "/>", {});
  EXPECT_OK(accepted.status);
  EXPECT_EQ(accepted.events.size(), 2u);

  const std::string duplicated = tag + " a0=\"v\"";
  PushOutcome rejected = ExpectChunkingInvariant(duplicated + "/>", {});
  EXPECT_EQ(rejected.status.code(), StatusCode::kParseError);
  EXPECT_EQ(rejected.status.message(),
            "XML parse error at byte " + std::to_string(duplicated.size()) +
                ": duplicate attribute 'a0'");
}

TEST(PushParserTest, EveryPrefixOfValidDocFails) {
  // No epilog whitespace: only the complete document may succeed.
  std::string doc =
      "<!DOCTYPE a [<!ELEMENT a ANY>]>"
      "<a n=\"&amp;\"><!-- c --><b><![CDATA[x]]>&#65;</b><c/></a>";
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    PushOutcome out = RunPush(std::string_view(doc).substr(0, cut), 3);
    EXPECT_FALSE(out.status.ok()) << "cut=" << cut;
  }
  EXPECT_OK(RunPush(doc, 3).status);
}

TEST(PushParserTest, ErrorOffsetsAreBytePositions) {
  PushOutcome out = RunPush("<a></b>", 2);
  ASSERT_FALSE(out.status.ok());
  EXPECT_NE(out.status.message().find("XML parse error at byte 3"),
            std::string::npos)
      << out.status.message();
}

TEST(PushParserTest, CarryStaysBoundedOnTinyChunks) {
  // One-byte chunks force maximal carrying; the carry buffer must still be
  // bounded by the longest markup construct, not the document size.
  std::string doc = "<root>";
  for (int i = 0; i < 200; ++i) doc += "<item key=\"value\">text</item>";
  doc += "</root>";
  PushOutcome out = RunPush(doc, 1);
  EXPECT_OK(out.status);
  EXPECT_LE(out.peak_carry, 64u);
}

TEST(PushParserTest, TagsInsideTheChunkAreLexedInPlace) {
  // A tag that lies wholly inside the chunk being fed reaches the handler
  // as a view of that chunk: one Feed of the whole document carries no
  // more than the '<' that opens each piece of markup.
  std::string doc = "<root version=\"2\">";
  for (int i = 0; i < 50; ++i) {
    doc += "<item key=\"value\" n='" + std::to_string(i) + "'>text</item>";
  }
  doc += "</root>";
  PushOutcome out = RunPush(doc, doc.size());
  EXPECT_OK(out.status);
  EXPECT_EQ(out.events.size(), 152u);
  EXPECT_LE(out.peak_carry, 1u);
}

// Handler that skips every element named `skip`.
class Skipper : public Recorder {
 public:
  Status StartElement(std::string_view name,
                      const std::vector<SaxAttribute>& attrs) override {
    Status s = Recorder::StartElement(name, attrs);
    if (name == "skip") parser->SkipCurrentSubtree();
    return s;
  }
  PushParser* parser = nullptr;
};

struct SkipOutcome {
  Status status = Status::OK();
  std::vector<std::string> events;
  uint64_t bytes_skipped = 0;
  uint64_t bytes_fed = 0;
};

SkipOutcome RunSkip(std::string_view doc, size_t chunk) {
  Skipper skipper;
  PushParser parser(&skipper);
  skipper.parser = &parser;
  SkipOutcome out;
  for (size_t pos = 0; pos < doc.size() && out.status.ok(); pos += chunk) {
    out.status =
        parser.Feed(doc.substr(pos, std::min(chunk, doc.size() - pos)));
  }
  if (out.status.ok()) out.status = parser.Finish();
  out.events = std::move(skipper.events);
  out.bytes_skipped = parser.bytes_skipped();
  out.bytes_fed = parser.bytes_fed();
  return out;
}

TEST(PushParserTest, SkipSuppressesSubtreeEvents) {
  std::string doc =
      "<r><keep>a</keep>"
      "<skip><skip>nested</skip><x y=\"&bad;\">not parsed</x></skip>"
      "<keep>b</keep></r>";
  for (size_t chunk : kChunks) {
    SkipOutcome out = RunSkip(doc, chunk);
    EXPECT_OK(out.status);
    // The skipped element's own StartElement fires (that is where the skip
    // decision is made) but nothing else from the subtree — including its
    // EndElement — and malformed entities inside are never seen.
    EXPECT_EQ(out.events,
              (std::vector<std::string>{"+r", "+keep", "t:a", "-keep",
                                        "+skip", "+keep", "t:b", "-keep",
                                        "-r"}))
        << "chunk=" << chunk;
    EXPECT_GT(out.bytes_skipped, 0u) << "chunk=" << chunk;
    EXPECT_EQ(out.bytes_fed, doc.size()) << "chunk=" << chunk;
  }
}

TEST(PushParserTest, SelfClosingSkipOnlyDropsEndElement) {
  SkipOutcome out = RunSkip("<r><skip a=\"1\"/><b/></r>", 2);
  EXPECT_OK(out.status);
  EXPECT_EQ(out.events,
            (std::vector<std::string>{"+r", "+skip a=1", "+b", "-b", "-r"}));
  EXPECT_EQ(out.bytes_skipped, 0u);  // nothing handed to the byte scanner
}

TEST(PushParserTest, SkippedRootReachesEpilog) {
  SkipOutcome out = RunSkip("<skip><a>x</a><b/></skip>\n<!-- tail -->", 3);
  EXPECT_OK(out.status);
  EXPECT_EQ(out.events, (std::vector<std::string>{"+skip"}));
  EXPECT_GT(out.bytes_skipped, 0u);
}

TEST(PushParserTest, SkipScannerStillChecksStructure) {
  // Mismatched nesting depth inside a skipped subtree: input truncation is
  // still detected at Finish.
  SkipOutcome out = RunSkip("<r><skip><unclosed></skip>", 4);
  EXPECT_FALSE(out.status.ok());
}

TEST(PushParserTest, TruncatedMidSkipFails) {
  std::string doc = "<r><skip><a><![CDATA[big";
  SkipOutcome out = RunSkip(doc, 5);
  ASSERT_FALSE(out.status.ok());
  EXPECT_NE(out.status.message().find("skipped subtree"), std::string::npos)
      << out.status.message();
}

TEST(PushParserTest, FeedAfterFinishIsLatched) {
  Recorder recorder;
  PushParser parser(&recorder);
  ASSERT_OK(parser.Feed("<a/>"));
  ASSERT_OK(parser.Finish());
  Status again = parser.Feed("<b/>");
  EXPECT_FALSE(again.ok());
}

}  // namespace
}  // namespace xmlreval::xml
