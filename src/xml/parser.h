// A from-scratch, non-validating XML 1.0 parser producing xml::Document.
//
// Supported: prolog/XML declaration, comments, processing instructions,
// CDATA sections, character references (decimal and hex), the five
// predefined entities, attributes, and full well-formedness checking
// (tag matching, attribute uniqueness, single root). A DOCTYPE declaration
// is tolerated and skipped; its internal subset reaches SAX handlers as
// the Doctype event but is not kept in the Document.
//
// ParseXml is a DOM-building SaxHandler over ParseXmlEvents, which feeds
// the whole buffer to xml::PushParser (push_parser.h), the library's one
// XML tokenizer.
//
// Unsupported (out of the paper's scope, rejected with kUnsupported):
// user-defined general entities in content.

#ifndef XMLREVAL_XML_PARSER_H_
#define XMLREVAL_XML_PARSER_H_

#include <memory>
#include <string_view>

#include "automata/alphabet.h"
#include "common/result.h"
#include "xml/tree.h"

namespace xmlreval::xml {

struct ParseOptions {
  /// Drop text nodes that are entirely XML whitespace. Data-oriented
  /// documents (everything in the paper's evaluation) use indentation
  /// whitespace that has no place in the content model, so this defaults on.
  bool skip_whitespace_text = true;
  /// When set, the produced Document is bound to this alphabet and element
  /// labels are interned as they are parsed (Document::BindInterning), so
  /// validators run string-free from the first visit. The caller must be the
  /// alphabet's sole writer during the parse (see automata/alphabet.h).
  std::shared_ptr<automata::Alphabet> intern_alphabet;
};

/// Parses an XML document from `input`. Errors carry 1-based line:column.
Result<Document> ParseXml(std::string_view input,
                          const ParseOptions& options = {});

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_PARSER_H_
