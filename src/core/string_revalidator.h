// String revalidation with respect to finite automata (§4 of the paper).
//
// Given DFAs a and b, preprocessing builds:
//   * b_immed  — immediate decision automaton of b (Definition 6),
//   * c_immed  — immediate decision automaton of the intersection of a and
//     b with IA = state-containment pairs (Definition 7),
//   * reversed counterparts over the reverse automata (footnote 3: the
//     reverse of a DFA is an NFA, so the reverses are determinized), used
//     when modifications cluster at the END of the string (§4.3).
//
// Runtime:
//   * Revalidate(s): s ∈ L(a) is known; decides s ∈ L(b) scanning as few
//     symbols as possible (optimal per Proposition 3).
//   * RevalidateModified(old_s, new_s): old_s ∈ L(a) known, new_s is old_s
//     after edits; decides new_s ∈ L(b) via the §4.3 three-phase scan,
//     choosing forward or reverse direction by where the edits fall.
//   * The single-schema update problem is the a == b special case
//     (the one-argument constructor).
//
// The §4.3 scan itself is the free function RevalidateEdited over one
// direction's automata, so core::ModValidator runs the same code on a
// modified node's child-label strings with the automata of TypeRelations.

#ifndef XMLREVAL_CORE_STRING_REVALIDATOR_H_
#define XMLREVAL_CORE_STRING_REVALIDATOR_H_

#include <optional>
#include <span>

#include "automata/immediate.h"
#include "common/result.h"

namespace xmlreval::core {

using automata::Dfa;
using automata::Symbol;

struct RevalidationResult {
  bool accepted = false;
  /// Symbols of the (new) string consumed before the verdict.
  size_t symbols_scanned = 0;
  /// Symbols of the ORIGINAL string consumed to recover the source state
  /// (phase 2 of §4.3); zero for the no-modifications path.
  size_t source_symbols_scanned = 0;
  /// Verdict came from an IA/IR state rather than end-of-input.
  bool decided_early = false;
  /// The reverse-automaton direction was chosen (§4.3).
  bool scanned_backward = false;
};

/// One scan direction's automata for §4.3. Forward automata read a string
/// front to back; reverse ones (the determinized reverses of footnote 3)
/// read it back to front.
struct ScanAutomata {
  const automata::ImmediateDfa* c_immed = nullptr;  // pair automaton (a, b)
  const automata::ImmediateDfa* b_immed = nullptr;  // single automaton of b
  const Dfa* a = nullptr;                           // the source DFA
};

/// §4.3: decides new_s ∈ L(b) where old_s ∈ L(a) and new_s is old_s after
/// edits. The edits fall between the strings' common prefix and common
/// suffix. The scan goes forward, or backward when `backward` is non-null
/// and the prefix is the longer, so that it ends on the longer unmodified
/// run: b_immed reads the new string up to that run (phase 1), a reads the
/// old string up to it (phase 2, counted in source_symbols_scanned), and
/// c_immed continues from the pair of states over the run (phase 3).
/// Backward scans read the spans in place; nothing is copied.
RevalidationResult RevalidateEdited(const ScanAutomata& forward,
                                    const ScanAutomata* backward,
                                    std::span<const Symbol> old_s,
                                    std::span<const Symbol> new_s);

class StringRevalidator {
 public:
  struct Options {
    /// Build the reverse automata and allow backward scans.
    bool enable_reverse = true;
  };

  /// Preprocesses the (a, b) pair. Both DFAs must share an alphabet size.
  static Result<StringRevalidator> Create(const Dfa& a, const Dfa& b,
                                          const Options& options);
  static Result<StringRevalidator> Create(const Dfa& a, const Dfa& b) {
    return Create(a, b, Options{});
  }

  /// Single-schema update problem: a == b.
  static Result<StringRevalidator> CreateSingle(const Dfa& a,
                                                const Options& options);
  static Result<StringRevalidator> CreateSingle(const Dfa& a) {
    return CreateSingle(a, Options{});
  }

  /// Decides s ∈ L(b) for s known to be in L(a), using c_immed.
  RevalidationResult Revalidate(std::span<const Symbol> s) const;

  /// Decides s ∈ L(b) with no prior knowledge, using b_immed. (The paper's
  /// fallback when neither direction has an advantage, and the baseline
  /// for the ablation benches.)
  RevalidationResult ValidateFresh(std::span<const Symbol> s) const;

  /// Decides new_s ∈ L(b) where old_s ∈ L(a) and new_s is a modified
  /// old_s. Computes the unmodified prefix/suffix itself and picks the
  /// scan direction.
  RevalidationResult RevalidateModified(std::span<const Symbol> old_s,
                                        std::span<const Symbol> new_s) const;

  /// As above with a caller-supplied boundary: new_s[i..] is known to
  /// equal the last (new_s.size() - i) symbols of old_s (the paper's
  /// "leftmost location at which, and beyond, no updates were performed").
  /// Always scans forward.
  RevalidationResult RevalidateModifiedForward(std::span<const Symbol> old_s,
                                               std::span<const Symbol> new_s,
                                               size_t unmodified_from) const;

  const automata::ImmediateDfa& c_immed() const { return *c_immed_; }
  const automata::ImmediateDfa& b_immed() const { return *b_immed_; }

 private:
  StringRevalidator() = default;

  ScanAutomata Forward() const { return {&*c_immed_, &*b_immed_, &*a_}; }

  std::optional<Dfa> a_;
  std::optional<Dfa> b_;
  std::optional<automata::ImmediateDfa> b_immed_;
  std::optional<automata::ImmediateDfa> c_immed_;
  // Reverse direction (determinized reverses; present iff enable_reverse).
  std::optional<Dfa> a_rev_;
  std::optional<Dfa> b_rev_;
  std::optional<automata::ImmediateDfa> b_rev_immed_;
  std::optional<automata::ImmediateDfa> c_rev_immed_;
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_STRING_REVALIDATOR_H_
