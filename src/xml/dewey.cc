#include "xml/dewey.h"

#include <algorithm>

namespace xmlreval::xml {

DeweyPath DeweyPath::Relative(const Document& doc, NodeId node,
                              NodeId ancestor) {
  std::vector<uint32_t> components;
  NodeId current = node;
  while (current != ancestor && doc.parent(current) != kInvalidNode) {
    uint32_t ordinal = 0;
    for (NodeId s = doc.prev_sibling(current); s != kInvalidNode;
         s = doc.prev_sibling(s)) {
      ++ordinal;
    }
    components.push_back(ordinal);
    current = doc.parent(current);
  }
  std::reverse(components.begin(), components.end());
  return DeweyPath(std::move(components));
}

std::string DeweyPath::ToString() const {
  if (components_.empty()) return "ε";
  std::string out;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += '.';
    out += std::to_string(components_[i]);
  }
  return out;
}

}  // namespace xmlreval::xml
