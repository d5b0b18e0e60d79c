#include "core/mod_validator.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/cast_walk.h"
#include "core/string_revalidator.h"
#include "obs/trace.h"

namespace xmlreval::core {

using automata::Symbol;
using internal::CastKernel;
using schema::kInvalidType;
using xml::DeltaKind;

ModValidator::ModValidator(const TypeRelations* relations)
    : relations_(relations) {
  XMLREVAL_CHECK(relations != nullptr, "ModValidator requires relations");
}

// §3.3's case analysis over one explicit preorder stack: a unit's own
// content is checked when it is popped, and its children are pushed in
// reverse so the first pops next. Visit order, first failure and counters
// are those of the recursive case analysis, at O(1) native stack for any
// depth; the Dewey path is built once, for the failure.
struct ModValidator::Walk {
  enum class Step : uint8_t {
    kCast,          // case 1: the untouched subtree goes to ProcessUnit
    kModified,      // case 4
    kInserted,      // case 3 (and any node without usable source history)
    kUntyped,       // τ' does not type the child's new label
    kPrecondition,  // τ does not type the child's old label
  };
  // A pending node. Typing failures found while expanding a parent are
  // deferred to the child's position, as CastWalk's poisoned units are,
  // and carry the PARENT's pair.
  struct Unit {
    xml::NodeId node;
    TypeId source_type;
    TypeId target_type;
    Step step;
  };

  Walk(const TypeRelations& relations, const xml::Document& document,
       const xml::ModificationIndex& modifications)
      : doc(document),
        mods(modifications),
        cast(relations, document, /*use_immediate=*/true,
             document.BoundTo(*relations.source().alphabet())),
        k(cast.k) {
    cast.simple_value = &value;
  }

  const xml::Document& doc;
  const xml::ModificationIndex& mods;
  // The kernel's tree driver: it drains every case-1 subtree, and its
  // kernel (k) holds every counter of the walk.
  internal::CastWalk cast;
  CastKernel& k;
  ValidationReport report;
  std::vector<Unit> stack;
  std::vector<CastUnit> frontier;  // shared by every case-1 subtree
  std::string value;               // χ of a simple-typed element
  // Proj_old / Proj_new child labels of the modified node being checked.
  std::vector<Symbol> old_syms;
  std::vector<Symbol> new_syms;

  bool Fail(xml::NodeId node, std::string message) {
    report.valid = false;
    report.violation = std::move(message);
    report.violation_path = xml::DeweyPath::Of(doc, node);
    return false;
  }

  /// Proj_old symbol of `c`: nullopt = ε (inserted / never existed),
  /// kUnboundSymbol = label outside Σ.
  std::optional<Symbol> OldSymbolOf(xml::NodeId c) const {
    if (cast.use_symbols) return mods.OldSymbol(doc, c);
    std::optional<std::string> label = mods.OldLabel(doc, c);
    if (!label) return std::nullopt;
    auto sym = k.source.alphabet()->Find(*label);
    return sym ? *sym : automata::kUnboundSymbol;
  }

  void Run(xml::NodeId root) {
    Symbol new_sym = cast.SymbolOf(root);
    TypeId t_root = new_sym != automata::kUnboundSymbol
                        ? k.target.RootType(new_sym)
                        : kInvalidType;
    if (t_root == kInvalidType) {
      k.CountElement();
      Fail(root, CastKernel::RootMessage(CastUnitKind::kContentMismatch,
                                         doc.label(root)));
      return;
    }
    std::optional<Symbol> old_sym = OldSymbolOf(root);
    if (!old_sym) {
      stack.push_back({root, kInvalidType, t_root, Step::kInserted});
    } else {
      TypeId s_root = *old_sym != automata::kUnboundSymbol
                          ? k.source.RootType(*old_sym)
                          : kInvalidType;
      if (s_root == kInvalidType) {
        Fail(root, StrCat("precondition violated: original root '",
                          mods.OldLabel(doc, root).value_or(
                              std::string(doc.label(root))),
                          "' is not declared by the source schema"));
        return;
      }
      stack.push_back({root, s_root, t_root,
                       mods.SubtreeModified(root) ? Step::kModified
                                                  : Step::kCast});
    }
    while (!stack.empty()) {
      const Unit unit = stack.back();
      stack.pop_back();
      if (!Process(unit)) return;
    }
  }

  bool Process(const Unit& unit) {
    switch (unit.step) {
      case Step::kCast:
        return DrainCast(unit);
      case Step::kModified:
        return Modified(unit.node, unit.source_type, unit.target_type);
      case Step::kInserted:
        return Inserted(unit.node, unit.target_type);
      case Step::kUntyped:
        return Fail(doc.parent(unit.node),
                    StrCat("internal: accepted content string uses untyped "
                           "label '",
                           doc.label(unit.node), "'"));
      case Step::kPrecondition:
        return Fail(unit.node,
                    k.PreconditionMessage(
                        unit.source_type,
                        k.source.alphabet()->Name(*OldSymbolOf(unit.node))));
    }
    return true;
  }

  // Case 1: plain §3.2 schema-cast validation of an untouched subtree.
  bool DrainCast(const Unit& unit) {
    frontier.push_back({unit.node, unit.source_type, unit.target_type,
                        CastUnitKind::kValidate});
    while (!frontier.empty()) {
      const CastUnit next = frontier.back();
      frontier.pop_back();
      if (!cast.ProcessUnit(next, &frontier)) {
        frontier.clear();
        return Fail(cast.fail_node, std::move(cast.fail_message));
      }
    }
    return true;
  }

  // χ of a simple-typed modified or inserted element: the text of its
  // live children, none of which may be an element.
  bool SimpleContent(xml::NodeId node, TypeId t) {
    value.clear();
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      if (mods.IsDeleted(c)) continue;
      if (doc.IsElement(c)) {
        return Fail(c, StrCat("element '", doc.label(c),
                              "' not allowed under simple-typed '",
                              doc.label(node), "'"));
      }
      k.CountText();
      value += doc.text(c);
    }
    if (k.SimpleValueOk(t, value)) return true;
    return Fail(node, k.DetailMessage(doc.label(node)));
  }

  // Case 3: a freshly inserted subtree — full validation against the
  // target type, skipping descendants deleted within the same session.
  bool Inserted(xml::NodeId node, TypeId t) {
    k.CountElement();
    if (k.target.IsSimple(t)) return SimpleContent(node, t);
    if (!k.AttributesOk(t, doc.attributes(node))) {
      return Fail(node, k.DetailMessage(doc.label(node)));
    }
    const automata::Dfa* dfa = k.rel.TargetDfa(t);
    automata::StateId q = dfa->start_state();
    const size_t mark = stack.size();
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      if (mods.IsDeleted(c)) continue;
      if (doc.IsText(c)) {
        k.CountText();
        if (!IsAllXmlWhitespace(doc.text(c))) {
          return Fail(c, StrCat("character data not allowed under '",
                                doc.label(node), "' (element-only content)"));
        }
        continue;
      }
      const Symbol sym = cast.SymbolOf(c);
      const TypeId t_child = sym < dfa->alphabet_size()
                                 ? k.target.ChildType(t, sym)
                                 : kInvalidType;
      if (t_child == kInvalidType) {
        return Fail(c, StrCat("element '", doc.label(c),
                              "' not allowed by target type '",
                              k.target.TypeName(t), "'"));
      }
      q = dfa->Next(q, sym);
      ++k.counters.dfa_steps;
      stack.push_back({c, kInvalidType, t_child, Step::kInserted});
    }
    if (!dfa->IsAccepting(q)) {
      return Fail(node, StrCat("children of inserted '", doc.label(node),
                               "' do not match the content model of target "
                               "type '",
                               k.target.TypeName(t), "'"));
    }
    std::reverse(stack.begin() + mark, stack.end());
    return true;
  }

  // Case 4: the node or something below it changed. Its own content is
  // re-checked against τ' (attributes too: the pair may differ in its
  // attribute policy), then each live child is pushed with
  // (types_τ(Proj_old), types_τ'(Proj_new)).
  bool Modified(xml::NodeId node, TypeId s, TypeId t) {
    k.CountElement();
    if (k.target.IsSimple(t)) return SimpleContent(node, t);
    if (!k.AttributesOk(t, doc.attributes(node))) {
      return Fail(node, k.DetailMessage(doc.label(node)));
    }
    const bool s_complex = k.source.IsComplex(s);
    // Labels interned after the relations were computed (kUnboundSymbol
    // included) lie beyond every padded transition table.
    const size_t sigma = k.rel.TargetDfa(t)->alphabet_size();
    old_syms.clear();
    new_syms.clear();
    const size_t mark = stack.size();
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      const DeltaKind kind = mods.Kind(c);
      if (doc.IsText(c)) {
        if (kind == DeltaKind::kDeleted) continue;
        k.CountText();
        if (!IsAllXmlWhitespace(doc.text(c))) {
          return Fail(c, StrCat("character data not allowed under '",
                                doc.label(node),
                                "' (element-only content in target type '",
                                k.target.TypeName(t), "')"));
        }
        continue;
      }
      const std::optional<Symbol> old_sym = OldSymbolOf(c);
      if (old_sym) {
        if (*old_sym >= sigma) {
          return Fail(node, StrCat("internal: original label '",
                                   mods.OldLabel(doc, c).value_or(
                                       std::string(doc.label(c))),
                                   "' missing from the alphabet"));
        }
        old_syms.push_back(*old_sym);
      }
      if (kind == DeltaKind::kDeleted) {
        k.CountElement();  // its label fed Proj_old
        continue;
      }
      const Symbol new_sym = cast.SymbolOf(c);
      if (new_sym >= sigma) {
        return Fail(c, CastKernel::UnboundMessage(doc.label(c)));
      }
      new_syms.push_back(new_sym);
      stack.push_back(ChildUnit(c, s, t, s_complex, old_sym, new_sym));
    }
    if (!ContentOk(s, t, s_complex)) {
      return Fail(node, k.ContentMessage(doc.label(node), t));
    }
    std::reverse(stack.begin() + mark, stack.end());
    return true;
  }

  // The unit of live child `c` of a modified node typed (s, t).
  Unit ChildUnit(xml::NodeId c, TypeId s, TypeId t, bool s_complex,
                 std::optional<Symbol> old_sym, Symbol new_sym) const {
    const TypeId t_child = k.target.ChildType(t, new_sym);
    if (t_child == kInvalidType) return {c, s, t, Step::kUntyped};
    // Inserted, or under a simple source type: no usable source knowledge.
    if (!old_sym || !s_complex) {
      return {c, kInvalidType, t_child, Step::kInserted};
    }
    const TypeId s_child = k.source.ChildType(s, *old_sym);
    if (s_child == kInvalidType) return {c, s, t, Step::kPrecondition};
    return {c, s_child, t_child,
            mods.SubtreeModified(c) ? Step::kModified : Step::kCast};
  }

  // new_syms ∈ L(τ') knowing old_syms ∈ L(τ): §4.3's scan when the pair
  // has a c_immed, otherwise b_immed (or the target DFA) over new_syms
  // alone. Every symbol either automaton reads is a dfa_step.
  bool ContentOk(TypeId s, TypeId t, bool s_complex) {
    const automata::ImmediateDfa* pair =
        s_complex ? k.rel.PairAutomaton(s, t) : nullptr;
    const automata::ImmediateDfa* single = k.rel.SingleAutomaton(t);
    if (single == nullptr) {
      k.counters.dfa_steps += new_syms.size();
      return k.rel.TargetDfa(t)->Accepts(new_syms);
    }
    RevalidationResult result;
    if (pair != nullptr) {
      const ScanAutomata forward{pair, single, k.rel.SourceDfa(s)};
      const ScanAutomata backward{k.rel.ReversePairAutomaton(s, t),
                                  k.rel.ReverseSingleAutomaton(t),
                                  k.rel.ReverseSourceDfa(s)};
      result = RevalidateEdited(
          forward, backward.c_immed != nullptr ? &backward : nullptr,
          old_syms, new_syms);
    } else {
      automata::ImmediateRunResult run = single->Run(new_syms);
      result.accepted = run.verdict == automata::Verdict::kAccept;
      result.symbols_scanned = run.symbols_scanned;
      result.decided_early = run.decided_early;
    }
    k.counters.dfa_steps +=
        result.symbols_scanned + result.source_symbols_scanned;
    if (result.decided_early) ++k.counters.immediate_decisions;
    return result.accepted;
  }
};

ValidationReport ModValidator::Validate(
    const xml::Document& doc, const xml::ModificationIndex& mods) const {
  // One span per document — the §3.3 Δ-pruned traversal. subtrees_skipped
  // in the attached args is the modified()-pruning the paper's CastWithMods
  // scaling claim rests on.
  obs::Span span("cast_with_mods.traverse");
  Walk walk(*relations_, doc, mods);
  if (!doc.has_root()) {
    walk.report.valid = false;
    walk.report.violation = "document has no root element";
    return std::move(walk.report);
  }
  walk.Run(doc.root());
  walk.report.counters = walk.k.counters;
  AttachTraceArgs(span, walk.report.counters);
  return std::move(walk.report);
}

}  // namespace xmlreval::core
