// Incremental (push-mode) XML event parsing: the XML tokenizer.
//
// PushParser is the one XML lexer in the library. Callers Feed() byte
// chunks as they arrive (pipe, socket, mmap window) and the parser emits
// SAX events with full well-formedness checks — the document is never
// resident as one buffer. ParseXmlEvents and ParseXml (sax.h, parser.h)
// are one Feed of the whole buffer followed by Finish(). Live state is
//
//   * the open-element tag stack                    — O(document depth)
//   * one carry buffer for a tag split across a
//     chunk boundary, a DOCTYPE or a character
//     reference                                     — bounded by the
//                                                     longest single tag
//   * the pending text of the current text node     — bounded by the
//                                                     largest text node
//
// none of which grows with document size. A start or end tag that lies
// wholly inside the chunk being fed is lexed in place, as a view of the
// chunk; only a tag that straddles a chunk boundary is copied into the
// carry buffer, and both reach the same tag handler. Comments, CDATA
// sections and processing instructions of any length cross chunk
// boundaries with O(1) state (rolling terminator match), never through
// the carry buffer.
//
// Text is coalesced: one Characters event per run, regardless of
// chunking. Parse errors report absolute byte offsets, not line:column —
// tracking lines would touch every byte, defeating skip-scanning; the
// whole-buffer entry points turn the offset into line:column on failure.
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
#include <optional>
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
  /// Absolute offset the latched well-formedness error names; nullopt
  /// when there is none (still OK, or a handler's own status).
  std::optional<uint64_t> error_offset() const { return error_offset_; }
  /// Currently open elements (excludes a subtree being skipped).
  size_t depth() const { return open_tag_begins_.size(); }

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
    kStartTagAcc,  // lexing a start tag (quote-aware)
    kEndTagAcc,    // lexing an end tag
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

  // Complete-construct handlers. A tag arrives as its text, '<' through
  // '>', at absolute `offset`: a view of the chunk, or of carry_ when it
  // straddled a boundary. DOCTYPEs and character references use carry_.
  Status HandleStartTag(std::string_view tag, uint64_t offset);
  Status HandleEndTag(std::string_view tag, uint64_t offset);
  Status HandleDoctype();
  Status HandleCharRef();

  Status EmitText();
  /// Decodes one reference; `text[*pos]` is the char after '&' and
  /// `text_offset` the absolute offset of `text[0]`.
  Status AppendReferenceAt(std::string_view text, size_t* pos,
                           std::string* out, uint64_t text_offset);

  void CarryByte(char c);
  void CarryBytes(const char* begin, const char* end);
  void CarryStart(char c);
  /// Ends the construct whose bytes so far are carry_ at `end` (in the
  /// chunk) and returns its whole text: in place when it began in this
  /// chunk, else completed in carry_. Advances p_ to `end`.
  std::string_view TakeConstruct(const char* end);

  std::string_view InnermostOpenTag() const {
    return std::string_view(open_tag_names_).substr(open_tag_begins_.back());
  }

  uint64_t OffsetOf(const char* q) const;  // absolute offset of chunk byte q
  uint64_t Offset() const { return OffsetOf(p_); }  // of the next unread byte
  Status ErrorAt(uint64_t offset, std::string_view message);
  Status Error(std::string_view message) { return ErrorAt(Offset(), message); }

  SaxHandler* handler_;
  ParseOptions options_;

  Mode mode_ = Mode::kProlog;
  Sub sub_ = Sub::kText;

  // The view being consumed by the current Feed() call.
  const char* p_ = nullptr;
  const char* end_ = nullptr;
  uint64_t chunk_offset_ = 0;  // absolute offset of the chunk's first byte
  uint64_t end_offset_ = 0;    // absolute offset of end_

  std::string carry_;
  uint64_t carry_offset_ = 0;  // absolute offset of carry_[0]
  char tag_quote_ = 0;         // active quote inside kStartTagAcc
  char doctype_quote_ = 0;
  int doctype_depth_ = 0;      // '[' nesting inside kDoctypeAcc

  std::string pending_text_;
  // Names of the open elements, back to back in one buffer; each entry of
  // open_tag_begins_ is where one starts.
  std::string open_tag_names_;
  std::vector<size_t> open_tag_begins_;
  SkipScanner skipper_;
  bool skip_is_root_ = false;

  // Set by SkipCurrentSubtree; only honored during StartElement dispatch.
  bool in_start_element_ = false;
  bool skip_requested_ = false;

  bool finished_ = false;
  bool failed_ = false;
  Status final_status_;  // latched first error, or the Finish() result
  std::optional<uint64_t> error_offset_;

  uint64_t bytes_fed_ = 0;
  uint64_t bytes_skipped_ = 0;
  uint64_t peak_carry_ = 0;

  // The current start tag's attributes: names are views of the tag text,
  // values are decoded copies. Read only while HandleStartTag runs.
  std::vector<std::pair<std::string_view, std::string>> attr_storage_;
  std::vector<SaxAttribute> attr_views_;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_PUSH_PARSER_H_
