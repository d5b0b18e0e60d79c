// Serialization of xml::Document back to XML text.

#ifndef XMLREVAL_XML_SERIALIZER_H_
#define XMLREVAL_XML_SERIALIZER_H_

#include <string>

#include "xml/tree.h"

namespace xmlreval::xml {

struct SerializeOptions {
  /// Pretty-print with newlines and `indent_width` spaces per depth level,
  /// up to 64 levels; deeper elements print compactly.
  bool pretty = true;
  int indent_width = 2;
  /// Emit the `<?xml version="1.0"?>` declaration.
  bool xml_declaration = true;
};

/// Serializes the whole document.
std::string Serialize(const Document& doc, const SerializeOptions& options = {});

/// Serializes the subtree rooted at `node`.
std::string SerializeSubtree(const Document& doc, NodeId node,
                             const SerializeOptions& options = {});

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_SERIALIZER_H_
