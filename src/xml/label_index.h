// Label index: direct access to all element instances of each tag.
//
// §3.4 of the paper observes that for DTDs — where a label determines its
// type — a validator that can enumerate the instances of a label directly
// (the "additional indexing information" of a DOM's getElementsByTagName)
// need only visit the labels whose source/target types are neither
// subsumed nor disjoint. This index is that access path.
//
// When the document is bound to an alphabet (see xml/tree.h), the index
// additionally keeps dense per-symbol buckets so validators can enumerate
// instances by Symbol with no hashing at all.

#ifndef XMLREVAL_XML_LABEL_INDEX_H_
#define XMLREVAL_XML_LABEL_INDEX_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "automata/alphabet.h"
#include "common/string_util.h"
#include "xml/tree.h"

namespace xmlreval::xml {

class LabelIndex {
 public:
  /// One pass over the document, O(nodes), no per-node allocations beyond
  /// bucket growth.
  static LabelIndex Build(const Document& doc);

  /// Instances of `label` in document order; empty when absent.
  const std::vector<NodeId>& Instances(std::string_view label) const {
    auto it = index_.find(label);
    return it == index_.end() ? kEmpty() : it->second;
  }

  /// Instances of the bound symbol `sym` in document order; empty when the
  /// document was unbound at Build time or `sym` is out of range.
  const std::vector<NodeId>& Instances(automata::Symbol sym) const {
    if (sym >= by_symbol_.size()) return kEmpty();
    return by_symbol_[sym];
  }

  /// True if Build saw a bound document, i.e. Instances(Symbol) works.
  bool HasSymbolBuckets() const { return !by_symbol_.empty(); }

  /// Number of symbol buckets (== bound alphabet size at Build time).
  size_t NumSymbolBuckets() const { return by_symbol_.size(); }

  /// First element (document order) whose label did not resolve to a bound
  /// symbol, or kInvalidNode. With symbol buckets, this is the only way an
  /// element can be missing from them, so a validator iterating buckets
  /// checks this once instead of re-resolving every label.
  NodeId FirstUnbound() const { return first_unbound_; }

  /// All labels occurring in the document.
  std::vector<std::string> Labels() const;

  size_t TotalElements() const { return total_elements_; }

 private:
  static const std::vector<NodeId>& kEmpty() {
    static const std::vector<NodeId> empty;
    return empty;
  }

  std::unordered_map<std::string, std::vector<NodeId>, StringViewHash,
                     std::equal_to<>>
      index_;
  // Dense symbol → instances buckets; empty when the document was unbound.
  // Out-of-Σ elements (symbol == kUnboundSymbol) appear only in index_.
  std::vector<std::vector<NodeId>> by_symbol_;
  NodeId first_unbound_ = kInvalidNode;
  size_t total_elements_ = 0;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_LABEL_INDEX_H_
