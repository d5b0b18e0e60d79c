// CastKernel — §3.2's per-element decision, shared by every cast driver
// (internal).
//
// validate(τ, τ', e) decides one element from its (source, target) type
// pair: accept the subtree when τ ≤ τ' (R_sub), reject it when τ ⊘ τ'
// (R_dis), otherwise check the target type's closed attributes or simple
// value, run its content model over the child labels — with c_immed (§4.2)
// deciding as soon as a prefix allows — and type each child. The kernel
// holds that decision once. Five drivers feed it elements:
//
//   * CastWalk (cast_walk.h): the tree driver behind CastValidator and
//     ParallelCastValidator;
//   * the session's CastHandler (streaming_validator.cc): the event driver
//     over PushParser;
//   * DtdIndexValidator: the label-index driver of §3.4;
//   * ModValidator: §3.3's walk over the modified() spine, which hands
//     every untouched subtree to CastWalk and takes the simple-value and
//     attribute checks and the shared messages for the nodes it re-checks;
//   * DocumentCorrector (corrector.cc): §7's correction, which runs every
//     element through CastWalk and repairs only the elements it rejects.
//
// A driver keeps only its traversal order, the point where it counts an
// element as visited, and the node a failure blames. Everything else — the
// typing, the short-circuits, the checks, the content run, their counters
// and the failure messages — lives here. The kernel is header-only,
// non-virtual and allocation-free on the success path: messages are built
// only once a driver reports a failure.

#ifndef XMLREVAL_CORE_CAST_KERNEL_H_
#define XMLREVAL_CORE_CAST_KERNEL_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "core/cast_validator.h"
#include "core/relations.h"
#include "core/report.h"
#include "schema/simple_types.h"

namespace xmlreval::core::internal {

/// §3.2's short-circuits for a (source, target) type pair.
enum class PairAction : uint8_t {
  kSkip,    // τ ≤ τ': every tree valid for τ is valid for τ'
  kReject,  // τ ⊘ τ': no tree valid for τ is valid for τ'
  kCheck,   // neither: the element itself must be checked
};

inline PairAction ClassifyPair(const TypeRelations& rel, TypeId s, TypeId t) {
  if (rel.Subsumed(s, t)) return PairAction::kSkip;
  if (rel.Disjoint(s, t)) return PairAction::kReject;
  return PairAction::kCheck;
}

/// The content-model run over one element's child-label string: c_immed
/// when it is prebuilt and enabled, otherwise the target DFA.
struct ContentRun {
  const automata::ImmediateDfa* pair = nullptr;
  const automata::Dfa* dfa = nullptr;  // pair->dfa(), or the target DFA
  automata::StateId state = 0;
  bool decided = false;  // c_immed reached an immediate-accept state
};

struct CastKernel {
  CastKernel(const TypeRelations& relations, bool immediate)
      : rel(relations),
        source(relations.source()),
        target(relations.target()),
        use_immediate(immediate) {}

  const TypeRelations& rel;
  const Schema& source;
  const Schema& target;
  /// Check content models with c_immed (§4.2) rather than the target DFA.
  const bool use_immediate;
  ValidationCounters counters;
  /// The checker's diagnostic after AttributesOk or SimpleValueOk fails.
  Status detail;

  // ---- Typing -----------------------------------------------------------

  /// R(λ) and R'(λ) for a root labelled `sym`. Returns kValidate, or
  /// kPrecondition when the source does not declare the root (a label
  /// outside Σ included), or kContentMismatch when the target does not.
  CastUnitKind TypeRoot(automata::Symbol sym, TypeId* s, TypeId* t) const {
    *s = source.RootType(sym);
    if (*s == schema::kInvalidType) return CastUnitKind::kPrecondition;
    *t = target.RootType(sym);
    return *t == schema::kInvalidType ? CastUnitKind::kContentMismatch
                                      : CastUnitKind::kValidate;
  }

  /// types_τ(λ) and types_τ'(λ) for a child labelled `sym` under the
  /// parent pair (s, t). Returns kValidate, or the failure: kUnboundLabel
  /// (λ ∉ Σ), kContentMismatch (τ' does not type λ) or kPrecondition (τ
  /// does not, so the document is not valid for the source).
  CastUnitKind TypeChild(TypeId s, TypeId t, automata::Symbol sym,
                         TypeId* child_s, TypeId* child_t) const {
    if (sym == automata::kUnboundSymbol) return CastUnitKind::kUnboundLabel;
    *child_t = target.ChildType(t, sym);
    if (*child_t == schema::kInvalidType) {
      return CastUnitKind::kContentMismatch;
    }
    *child_s = source.ChildType(s, sym);
    return *child_s == schema::kInvalidType ? CastUnitKind::kPrecondition
                                            : CastUnitKind::kValidate;
  }

  // ---- Visits and short-circuits ----------------------------------------

  void CountElement() {
    ++counters.nodes_visited;
    ++counters.elements_visited;
  }
  void CountText() {
    ++counters.nodes_visited;
    ++counters.text_nodes_visited;
  }

  /// ClassifyPair, counting an R_sub skip or an R_dis reject.
  PairAction Enter(TypeId s, TypeId t) {
    const PairAction action = ClassifyPair(rel, s, t);
    if (action == PairAction::kSkip) ++counters.subtrees_skipped;
    if (action == PairAction::kReject) ++counters.disjoint_rejects;
    return action;
  }

  // ---- Checks of a kCheck element ---------------------------------------
  //
  // The source's guarantees about attributes and values do not transfer to
  // a pair that is neither subsumed nor disjoint, so both are re-checked
  // against τ'.

  /// Closed-attribute check of complex target type t. `attributes` is the
  /// DOM's std::vector<xml::Attribute> or the parser's
  /// std::vector<xml::SaxAttribute>; both are read in place.
  template <typename Attributes>
  bool AttributesOk(TypeId t, const Attributes& attributes) {
    const schema::ComplexType& decl = target.complex_type(t);
    if (decl.open_attributes) return true;
    ++counters.attr_checks;
    // Declares nothing and carries nothing: provably OK. Structural
    // wrapper elements make this common enough that skipping the call is
    // measurable.
    if (decl.attributes.empty() && attributes.empty()) return true;
    Status check = schema::ValidateTypeAttributes(decl, attributes);
    if (check.ok()) return true;
    detail = std::move(check);
    return false;
  }

  /// χ check of `value` against simple target type t. The inline probe
  /// decides the hot shapes (unrestricted strings, range-faceted integers)
  /// without the full checker's call and Status; its verdicts agree
  /// exactly with ValidateSimpleValue, which still runs for undecided
  /// values and for the diagnostic of invalid ones.
  bool SimpleValueOk(TypeId t, std::string_view value) {
    ++counters.simple_checks;
    const schema::SimpleType& type = target.simple_type(t);
    if (schema::ProbeSimpleValue(type, value) > 0) return true;
    Status check = schema::ValidateSimpleValue(type, value);
    if (check.ok()) return true;
    detail = std::move(check);
    return false;
  }

  /// Starts the content run of an element typed (s, t), t complex. False
  /// when c_immed rejects in its start state.
  bool StartContent(TypeId s, TypeId t, ContentRun* run) {
    run->pair = use_immediate ? rel.PairAutomaton(s, t) : nullptr;
    run->dfa = run->pair != nullptr ? &run->pair->dfa() : rel.TargetDfa(t);
    run->state = run->dfa->start_state();
    run->decided = false;
    return run->pair == nullptr || ApplyClass(run);
  }

  /// Feeds one child label to an undecided run. False on rejection. A
  /// symbol interned after the relations were computed lies beyond the
  /// padded transition table and matches no content model.
  bool StepContent(ContentRun* run, automata::Symbol sym) {
    if (sym >= run->dfa->alphabet_size()) return false;
    run->state = run->dfa->Next(run->state, sym);
    ++counters.dfa_steps;
    return run->pair == nullptr || ApplyClass(run);
  }

  /// End of the child string. For c_immed, acceptance of the product is
  /// F_a × F_b, and the source component accepts by the precondition.
  static bool EndContent(const ContentRun& run) {
    return run.decided || run.dfa->IsAccepting(run.state);
  }

  // ---- Failure messages -------------------------------------------------

  static std::string RootMessage(CastUnitKind typing, std::string_view label) {
    if (typing == CastUnitKind::kPrecondition) {
      return StrCat("precondition violated: root '", label,
                    "' is not declared by the source schema");
    }
    return StrCat("root element '", label,
                  "' is not declared by the target schema");
  }

  static std::string UnboundMessage(std::string_view label) {
    return StrCat("element '", label, "' is outside the schemas' alphabet");
  }

  std::string ContentMessage(std::string_view label, TypeId t) const {
    return StrCat("children of '", label,
                  "' do not match the content model of target type '",
                  target.TypeName(t), "'");
  }

  std::string PreconditionMessage(TypeId s, std::string_view label) const {
    return StrCat("precondition violated: source type '", source.TypeName(s),
                  "' does not type child label '", label, "'");
  }

  /// The message for a failed TypeChild; (s, t) is the parent's pair.
  std::string TypingMessage(CastUnitKind typing, std::string_view parent_label,
                            TypeId s, TypeId t, std::string_view label) const {
    switch (typing) {
      case CastUnitKind::kUnboundLabel:
        return UnboundMessage(label);
      case CastUnitKind::kContentMismatch:
        return ContentMessage(parent_label, t);
      case CastUnitKind::kPrecondition:
        return PreconditionMessage(s, label);
      case CastUnitKind::kValidate:
        break;
    }
    return std::string();
  }

  /// The message for a PairAction::kReject (R_dis) element.
  std::string PairRejectMessage(std::string_view label, TypeId s,
                                TypeId t) const {
    return StrCat("element '", label, "': source type '", source.TypeName(s),
                  "' is disjoint from target type '", target.TypeName(t),
                  "'");
  }

  /// The message for the last failed AttributesOk or SimpleValueOk.
  std::string DetailMessage(std::string_view label) const {
    return StrCat("element '", label, "': ", detail.message());
  }

 private:
  // Applies c_immed's class of the run's state. Immediate accept decides
  // the run; immediate reject returns false. Both count a decision.
  bool ApplyClass(ContentRun* run) {
    switch (run->pair->Class(run->state)) {
      case automata::StateClass::kImmediateAccept:
        ++counters.immediate_decisions;
        run->decided = true;
        return true;
      case automata::StateClass::kImmediateReject:
        ++counters.immediate_decisions;
        return false;
      case automata::StateClass::kNormal:
        break;
    }
    return true;
  }
};

}  // namespace xmlreval::core::internal

#endif  // XMLREVAL_CORE_CAST_KERNEL_H_
