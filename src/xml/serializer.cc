#include "xml/serializer.h"

#include <vector>

#include "common/string_util.h"

namespace xmlreval::xml {
namespace {

// Deeper elements print compactly: indenting them costs depth² bytes.
constexpr int kMaxPrettyDepth = 64;

bool HasElementChild(const Document& doc, NodeId id) {
  for (NodeId c = doc.first_child(id); c != kInvalidNode;
       c = doc.next_sibling(c)) {
    if (doc.IsElement(c)) return true;
  }
  return false;
}

// Writes the subtree rooted at `root`. Iterative: the open elements live
// on a heap stack, so document depth is unbounded.
void SerializeNode(const Document& doc, NodeId root,
                   const SerializeOptions& options, std::string* out) {
  struct Frame {
    NodeId element;
    NodeId next_child;
    int depth;
    // Elements with element children get pretty indentation; elements with
    // only text content stay on one line so round-tripping does not inject
    // whitespace into simple values.
    bool structured;
  };
  std::vector<Frame> stack;

  auto indent = [&](int d) {
    if (!options.pretty || d > kMaxPrettyDepth) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(d) * options.indent_width, ' ');
  };
  // Writes a text node whole, or an element's start tag; an element with
  // children is left open on the stack.
  auto open = [&](NodeId id, int depth) {
    if (doc.IsText(id)) {
      out->append(EscapeXmlText(doc.text(id)));
      return;
    }
    if (depth > 0) indent(depth);
    out->push_back('<');
    out->append(doc.label(id));
    for (const Attribute& a : doc.attributes(id)) {
      out->push_back(' ');
      out->append(a.name);
      out->append("=\"");
      out->append(EscapeXmlText(a.value));
      out->push_back('"');
    }
    if (!doc.HasChildren(id)) {
      out->append("/>");
      return;
    }
    out->push_back('>');
    stack.push_back(
        Frame{id, doc.first_child(id), depth, HasElementChild(doc, id)});
  };

  open(root, 0);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child != kInvalidNode) {
      NodeId child = top.next_child;
      top.next_child = doc.next_sibling(child);
      open(child, top.depth + 1);  // only a structured parent has elements
      continue;
    }
    if (top.structured) indent(top.depth);
    out->append("</");
    out->append(doc.label(top.element));
    out->push_back('>');
    stack.pop_back();
  }
}

}  // namespace

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (options.xml_declaration) {
    out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  }
  if (doc.has_root()) {
    if (!out.empty() && !options.pretty) out.push_back('\n');
    SerializeNode(doc, doc.root(), options, &out);
  }
  if (options.pretty) out.push_back('\n');
  return out;
}

std::string SerializeSubtree(const Document& doc, NodeId node,
                             const SerializeOptions& options) {
  std::string out;
  SerializeNode(doc, node, options, &out);
  return out;
}

}  // namespace xmlreval::xml
