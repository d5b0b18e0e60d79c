// Symbol interning shared by schemas, automata, and documents.
//
// The paper assumes both schemas range over the same alphabet Σ of element
// labels. An Alphabet interns label strings to dense uint32 ids so that
// DFAs can use flat transition tables and validators can compare labels by
// id. One Alphabet instance is shared by a source/target schema pair.

#ifndef XMLREVAL_AUTOMATA_ALPHABET_H_
#define XMLREVAL_AUTOMATA_ALPHABET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace xmlreval::automata {

using Symbol = uint32_t;
inline constexpr Symbol kInvalidSymbol = 0xFFFFFFFFu;

/// Sentinel carried by document nodes whose label is not (or not yet) in Σ:
/// unbound documents, and bound documents whose labels fall outside the
/// schema pair's alphabet. kUnboundSymbol is never interned and is numerically
/// out of range for every transition table, so a validator that reads it can
/// treat the node exactly like a Find() miss — no match, degrade to the
/// string path or reject per the content model. Distinct from kInvalidSymbol,
/// which marks absent/erroneous symbol values in automata construction.
inline constexpr Symbol kUnboundSymbol = 0xFFFFFFFEu;

// Concurrency contract (single writer / shared readers)
// -----------------------------------------------------
// An Alphabet is append-only: Intern() grows names_/ids_ but never reassigns
// or removes an id, so a Symbol obtained at any point stays valid — and keeps
// naming the same label — for the Alphabet's lifetime. The class itself is
// NOT internally synchronized. The serving layer relies on the following
// discipline (see service/schema_registry.h):
//
//   * Writers (schema registration, parse-time interning) must hold the
//     registry's exclusive lock, or otherwise be the sole thread touching
//     the Alphabet. At most one writer at a time.
//   * Readers (Find/Name/size on validator hot paths, Document::Bind) must
//     hold the registry's shared lock — SchemaRegistry::ReadGuard() — for
//     the duration of the read. Concurrent readers are safe with each other
//     but not with a concurrent Intern().
//   * Symbols and the references returned by Name() may be cached and used
//     after the guard is released; only the lookup itself races with
//     interning.
//
// Offline users (benchmarks, tests, CLI) that never share an Alphabet across
// threads can ignore all of the above.
class Alphabet {
 public:
  /// Returns the id for `name`, interning it if new.
  Symbol Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    Symbol id = static_cast<Symbol>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id for `name`, or nullopt if it was never interned.
  /// Document labels outside Σ can never satisfy any content model, so
  /// validators treat a nullopt as an immediate mismatch. Heterogeneous
  /// lookup: no temporary std::string on this hot path.
  std::optional<Symbol> Find(std::string_view name) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  const std::string& Name(Symbol id) const { return names_[id]; }
  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, Symbol, StringViewHash, std::equal_to<>>
      ids_;
  std::vector<std::string> names_;
};

}  // namespace xmlreval::automata

#endif  // XMLREVAL_AUTOMATA_ALPHABET_H_
