// Event-based (SAX-style) XML parsing.
//
// A SaxHandler receives parse events from xml::PushParser, the library's
// one XML tokenizer (push_parser.h). ParseXmlEvents drives a handler
// through a whole in-memory document by feeding PushParser the whole
// buffer; xml::ParseXml is a thin DOM-building handler on top of it. The
// streaming cast session (core/streaming_validator.h) feeds PushParser
// chunk by chunk instead, which realizes the paper's memory claim — "the
// memory requirement of our algorithm does not vary with the size of the
// document, but depends solely on the sizes of the schemas" (§7) — plus
// O(document depth) for the element stack.
//
// Handlers may abort the parse by returning a non-OK Status from any
// callback; the status is propagated to the caller unchanged (used by
// validators to stop at the first early reject).

#ifndef XMLREVAL_XML_SAX_H_
#define XMLREVAL_XML_SAX_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/parser.h"

namespace xmlreval::xml {

/// Attribute view valid only during the StartElement callback.
struct SaxAttribute {
  std::string_view name;
  std::string_view value;
};

/// Receiver of parse events. Default implementations accept and ignore.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  /// <!DOCTYPE name [subset]> — at most once, before the root element.
  virtual Status Doctype(std::string_view name, std::string_view subset) {
    (void)name;
    (void)subset;
    return Status::OK();
  }

  virtual Status StartElement(std::string_view name,
                              const std::vector<SaxAttribute>& attributes) {
    (void)name;
    (void)attributes;
    return Status::OK();
  }

  virtual Status EndElement(std::string_view name) {
    (void)name;
    return Status::OK();
  }

  /// Character data (entity references already decoded). Consecutive runs,
  /// CDATA sections included, are coalesced into one event; whitespace-only
  /// runs are dropped when skip_whitespace_text is set.
  virtual Status Characters(std::string_view text) {
    (void)text;
    return Status::OK();
  }
};

/// Streams `input` through `handler`: one PushParser Feed of the whole
/// buffer, then Finish. Well-formedness errors (with 1-based line:column)
/// and handler failures both surface as the returned Status.
Status ParseXmlEvents(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options = {});

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_SAX_H_
