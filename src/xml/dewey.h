// Dewey decimal numbering of tree nodes (Section 3.3 of the paper).
//
// A DeweyPath identifies a node by the sequence of child indices on the
// path from the root: the root is [], its third child is [2], that child's
// first child is [2,0], and so on. Validators report where a violation
// lies as a DeweyPath, built once from the failing node.

#ifndef XMLREVAL_XML_DEWEY_H_
#define XMLREVAL_XML_DEWEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/tree.h"

namespace xmlreval::xml {

/// Sequence of 0-based child ordinals from the root.
class DeweyPath {
 public:
  DeweyPath() = default;
  explicit DeweyPath(std::vector<uint32_t> components)
      : components_(std::move(components)) {}

  /// Path of `node` within `doc`, computed by walking parent links
  /// (O(depth * avg-fanout); built only for the violation a validator
  /// reports, never on a hot path).
  static DeweyPath Of(const Document& doc, NodeId node) {
    return Relative(doc, node, kInvalidNode);
  }

  /// Path of `node` RELATIVE to `ancestor` (Relative(doc, n, n) is ε).
  /// `ancestor` must lie on `node`'s parent chain, or be kInvalidNode for
  /// the path from the root. Same cost model as Of.
  static DeweyPath Relative(const Document& doc, NodeId node,
                            NodeId ancestor);

  const std::vector<uint32_t>& components() const { return components_; }
  size_t depth() const { return components_.size(); }
  bool IsRoot() const { return components_.empty(); }

  /// "1.2.0"-style rendering; "ε" for the root.
  std::string ToString() const;

  bool operator==(const DeweyPath& other) const {
    return components_ == other.components_;
  }
  /// Lexicographic; matches document order for paths in the same tree.
  bool operator<(const DeweyPath& other) const {
    return components_ < other.components_;
  }

 private:
  std::vector<uint32_t> components_;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_DEWEY_H_
