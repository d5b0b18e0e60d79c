// Incremental (push-mode) XML event parsing.
//
// PushParser is the chunked counterpart of ParseXmlEvents: callers Feed()
// byte chunks as they arrive (pipe, socket, mmap window) and the parser
// emits the same SAX events with the same well-formedness checks — the
// document is never resident as one buffer. Live state is
//
//   * the open-element tag stack                    — O(document depth)
//   * one carry buffer for a construct split across
//     a chunk boundary (a tag, a DOCTYPE, a char
//     reference)                                    — bounded by the
//                                                     longest single tag
//   * the pending text of the current text node     — bounded by the
//                                                     largest text node
//
// none of which grows with document size. Comments, CDATA sections and
// processing instructions of any length cross chunk boundaries with O(1)
// state (rolling terminator match), never through the carry buffer.
//
// Like ParseXmlEvents, PushParser coalesces text: one Characters event per
// run, regardless of chunking. By design, parse errors report absolute
// byte offsets, not line:column — tracking lines would touch every byte,
// defeating skip-scanning.
//
// SkipCurrentSubtree() is the hook for schema-cast subsumption skipping
// (core/streaming_validator.h): called from within StartElement, it stops
// tokenizing and hands the bytes to SkipScanner until the element's
// matching end tag. The skipped element gets NO EndElement event and its
// descendants produce no events at all; bytes so consumed are tallied in
// bytes_skipped().

#ifndef XMLREVAL_XML_PUSH_PARSER_H_
#define XMLREVAL_XML_PUSH_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/sax.h"
#include "xml/skip_scanner.h"

namespace xmlreval::xml {

class PushParser {
 public:
  /// `handler` must outlive the parser. Honors
  /// ParseOptions::skip_whitespace_text.
  explicit PushParser(SaxHandler* handler, const ParseOptions& options = {});

  PushParser(const PushParser&) = delete;
  PushParser& operator=(const PushParser&) = delete;

  /// Consumes the next chunk. Returns non-OK on the first well-formedness
  /// error or handler abort; the parser is then latched and every later
  /// Feed/Finish returns the same status.
  Status Feed(std::string_view chunk);

  /// Declares end of input; checks that the document completed. Idempotent.
  Status Finish();

  /// Callable ONLY from inside SaxHandler::StartElement: suppresses the
  /// just-started element's subtree. For a self-closing element this only
  /// cancels its EndElement; otherwise the parser switches to the raw-byte
  /// SkipScanner until the matching end tag.
  void SkipCurrentSubtree();

  uint64_t bytes_fed() const { return bytes_fed_; }
  /// Bytes consumed by the raw-byte skip scanner (never tokenized).
  uint64_t bytes_skipped() const { return bytes_skipped_; }
  /// High-water mark of the chunk-boundary carry buffer.
  uint64_t peak_carry_bytes() const { return peak_carry_; }
  /// Currently open elements (excludes a subtree being skipped).
  size_t depth() const { return open_tags_.size(); }

 private:
  enum class Mode : uint8_t {
    kProlog,   // before the root element: XML decl, comments, DOCTYPE, PIs
    kContent,  // inside the root element (or at its start tag)
    kSkip,     // raw-byte subtree skip via SkipScanner
    kEpilog,   // after the root closed: whitespace, comments, PIs only
  };

  enum class Sub : uint8_t {
    kText,         // character data (content) / whitespace (prolog, epilog)
    kMarkupLt,     // carry == "<": classify the construct
    kMarkupBang,   // carry == "<!...": comment / CDATA / DOCTYPE dispatch
    kStartTagAcc,  // accumulating a start tag into carry (quote-aware)
    kEndTagAcc,    // accumulating an end tag into carry
    kDoctypeAcc,   // accumulating a DOCTYPE into carry (bracket/quote-aware)
    kCharRef,      // accumulating an '&...;' reference into carry
    kComment,      // inside "<!--": scan for '-'
    kCommentDash,
    kCommentDashDash,
    kCData,        // inside CDATA: bytes join pending text
    kCDataBracket,
    kCDataBracketBracket,
    kPi,           // inside "<?": scan for '?'
    kPiQ,
  };

  // One pass over the current chunk view; returns on error or drain.
  Status Run();
  Status RunSkip();
  Status RunContentText();
  Status RunMiscText();
  Status RunMarkupLt();
  Status RunMarkupBang();
  Status RunStartTagAcc();
  Status RunEndTagAcc();
  Status RunDoctypeAcc();
  Status RunCharRef();
  Status RunComment();
  Status RunCData();
  Status RunPi();

  // Complete-construct handlers over carry_ (mirror EventParser).
  Status HandleStartTag();
  Status HandleEndTag();
  Status HandleDoctype();
  Status HandleCharRef();

  Status EmitText();
  /// Decodes one reference; `text[*pos]` is the char after '&'. Mirrors
  /// EventParser::AppendReference over in-memory tag text.
  Status AppendReferenceAt(std::string_view text, size_t* pos,
                           std::string* out, uint64_t text_offset);

  void CarryByte(char c);
  void CarryStart(char c);

  uint64_t Offset() const;  // absolute offset of the next unread byte
  Status ErrorAt(uint64_t offset, std::string_view message);
  Status Error(std::string_view message) { return ErrorAt(Offset(), message); }

  SaxHandler* handler_;
  ParseOptions options_;

  Mode mode_ = Mode::kProlog;
  Sub sub_ = Sub::kText;

  // The view being consumed by the current Feed() call.
  const char* p_ = nullptr;
  const char* end_ = nullptr;
  uint64_t end_offset_ = 0;  // absolute offset of end_

  std::string carry_;
  uint64_t carry_offset_ = 0;  // absolute offset of carry_[0]
  char tag_quote_ = 0;         // active quote inside kStartTagAcc
  char doctype_quote_ = 0;
  int doctype_depth_ = 0;      // '[' nesting inside kDoctypeAcc

  std::string pending_text_;
  std::vector<std::string> open_tags_;
  SkipScanner skipper_;
  bool skip_is_root_ = false;

  // Set by SkipCurrentSubtree; only honored during StartElement dispatch.
  bool in_start_element_ = false;
  bool skip_requested_ = false;

  bool finished_ = false;
  bool failed_ = false;
  Status final_status_;  // latched first error, or the Finish() result

  uint64_t bytes_fed_ = 0;
  uint64_t bytes_skipped_ = 0;
  uint64_t peak_carry_ = 0;

  std::vector<std::pair<std::string, std::string>> attr_storage_;
  std::vector<SaxAttribute> attr_views_;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_PUSH_PARSER_H_
