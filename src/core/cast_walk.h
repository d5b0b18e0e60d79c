// CastWalk — the tree driver of the §3.2 kernel behind both cast validators,
// ModValidator's untouched subtrees and the corrector (internal).
//
// ProcessUnit runs validate(τ, τ', e) for ONE node through CastKernel
// (core/cast_kernel.h): the subsumed/disjoint short-circuits, the
// simple-value or attribute and content-model checks, and the child-typing
// pass that pushes the children onto the frontier in reverse document
// order (so a LIFO pop yields preorder). CastValidator drains one frontier
// on one thread; ParallelCastValidator runs the same code over donated
// frontier slices on many. Keeping the node-level driver in one place is
// what makes the two engines' verdicts, paths, and counters bit-identical.
//
// Counting discipline matches report.h: a node is visited once, at entry —
// in serial mode that entry is the unit's pop; in prune_subsumed_at_push
// mode a subsumed child's entry is charged at push time instead (same
// totals, but the child never becomes a frontier unit, which is what keeps
// subsumed subtrees from ever becoming parallel tasks).
//
// Failure protocol: ProcessUnit returns false with fail_node / fail_message
// set; it never materializes a Dewey path (the caller reconstructs one
// lazily, only for the failure it actually reports).

#ifndef XMLREVAL_CORE_CAST_WALK_H_
#define XMLREVAL_CORE_CAST_WALK_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/cast_kernel.h"
#include "core/cast_validator.h"
#include "core/relations.h"
#include "core/report.h"
#include "xml/tree.h"

namespace xmlreval::core::internal {

struct CastWalk {
  CastWalk(const TypeRelations& rel, const xml::Document& document,
           bool use_immediate, bool symbols)
      : k(rel, use_immediate),
        doc(document),
        use_symbols(symbols),
        hv(document.hot_view()) {}

  CastKernel k;
  const xml::Document& doc;
  // True when the document is bound to the schema pair's alphabet: node
  // symbols are read directly (zero hashing, zero allocation); otherwise
  // each label is resolved through Alphabet::Find as before.
  bool use_symbols;
  // Raw SoA column pointers of `doc` (xml/tree.h): the walk's inner loops
  // stride dense int32 arrays directly instead of calling through the
  // Document accessors, and software-prefetch the next sibling's row.
  // Only the corrector creates nodes, and it calls RetakeView() after.
  xml::Document::HotView hv;
  // Parallel mode: subsumed children are counted and dropped at push time
  // instead of being pushed for an O(1) pop.
  bool prune_subsumed_at_push = false;
  // Reusable buffer for multi-text-chunk simple values (CastScratch).
  std::string* simple_value = nullptr;

  // Set when ProcessUnit returns false. fail_node carries the node the
  // violation is REPORTED AT (the parent, for poisoned child units).
  xml::NodeId fail_node = xml::kInvalidNode;
  std::string fail_message;

  /// Re-reads the column pointers, which creating a node may move.
  void RetakeView() { hv = doc.hot_view(); }

  bool Fail(xml::NodeId node, std::string message) {
    fail_node = node;
    fail_message = std::move(message);
    return false;
  }

  bool ContentFail(xml::NodeId node, TypeId t_type) {
    return Fail(node, k.ContentMessage(doc.label(node), t_type));
  }

  /// Symbol of element `c`: the bound symbol when use_symbols, else a
  /// Find() with misses mapped to kUnboundSymbol (which matches nothing).
  automata::Symbol SymbolOf(xml::NodeId c) const {
    if (use_symbols) return hv.symbol[c];
    auto sym = k.source.alphabet()->Find(doc.label(c));
    return sym ? *sym : automata::kUnboundSymbol;
  }

  /// χ of a simple-typed element: the text of its children, each counted
  /// as visited (source validity rules out element children — a complex
  /// source type would be disjoint from the simple target). The common
  /// single-text-child shape is a view straight into the tree; multi-chunk
  /// values are stitched into the reusable scratch buffer.
  std::string_view SimpleValue(xml::NodeId node) {
    size_t text_count = 0;
    xml::NodeId only_text = xml::kInvalidNode;
    for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
         c = hv.next_sibling[c]) {
      if (hv.IsText(c)) {
        k.CountText();
        if (++text_count == 1) only_text = c;
      }
    }
    if (text_count <= 1) {
      return text_count == 0 ? std::string_view() : doc.text(only_text);
    }
    simple_value->clear();
    for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
         c = hv.next_sibling[c]) {
      if (hv.IsText(c)) *simple_value += doc.text(c);
    }
    return *simple_value;
  }

  /// validate(τ, τ', e) for one frontier unit. Pushes the unit's element
  /// children onto *frontier (reverse document order: first child on top).
  /// Returns false on failure with fail_node/fail_message set.
  bool ProcessUnit(const CastUnit& unit, std::vector<CastUnit>* frontier) {
    const xml::NodeId node = unit.node;

    // Poisoned units: the failure was detected while expanding the parent
    // but is deferred to the child's document-order position, so every
    // earlier subtree gets validated (and can fail) first — exactly the
    // recursive algorithm's report order. The parent's entry counters were
    // charged when IT was processed; a poisoned child charges nothing.
    if (unit.kind != CastUnitKind::kValidate) {
      const xml::NodeId parent = doc.parent(node);
      return Fail(parent, k.TypingMessage(unit.kind, doc.label(parent),
                                          unit.source_type, unit.target_type,
                                          doc.label(node)));
    }

    const TypeId s_type = unit.source_type;
    const TypeId t_type = unit.target_type;
    k.CountElement();
    switch (k.Enter(s_type, t_type)) {
      case PairAction::kSkip:
        return true;
      case PairAction::kReject:
        return Fail(node, k.PairRejectMessage(doc.label(node), s_type, t_type));
      case PairAction::kCheck:
        break;
    }

    if (k.target.IsSimple(t_type)) {
      if (k.SimpleValueOk(t_type, SimpleValue(node))) return true;
      return Fail(node, k.DetailMessage(doc.label(node)));
    }
    // Complex target (and complex source, else the pair would be disjoint).
    if (!k.AttributesOk(t_type, doc.attributes(node))) {
      return Fail(node, k.DetailMessage(doc.label(node)));
    }

    // Per §3.2's pseudocode: first decide the content-model membership,
    // then expand the children. Both passes stream over the sibling list;
    // when c_immed classifies the START state as immediate-accept — the
    // common case when the two content models coincide — the content pass
    // is skipped outright.
    ContentRun run;
    if (!k.StartContent(s_type, t_type, &run)) return ContentFail(node, t_type);
    for (xml::NodeId c = hv.first_child[node];
         c != xml::kInvalidNode && !run.decided; c = hv.next_sibling[c]) {
      hv.PrefetchRow(hv.next_sibling[c]);
      if (!hv.IsElement(c)) continue;  // whitespace guaranteed by source
      const automata::Symbol sym = SymbolOf(c);
      if (sym == automata::kUnboundSymbol) {
        return Fail(node, CastKernel::UnboundMessage(doc.label(c)));
      }
      if (!k.StepContent(&run, sym)) return ContentFail(node, t_type);
    }
    if (!CastKernel::EndContent(run)) return ContentFail(node, t_type);

    // Expansion pass, with (types_τ(λ), types_τ'(λ)) per child. Typing
    // failures become poisoned units at the child's position (see above),
    // carrying the PARENT's pair; the span pushed forward is reversed so
    // the FIRST child pops first.
    const size_t mark = frontier->size();
    for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
         c = hv.next_sibling[c]) {
      hv.PrefetchRow(hv.next_sibling[c]);
      if (!hv.IsElement(c)) continue;
      TypeId child_s = schema::kInvalidType;
      TypeId child_t = schema::kInvalidType;
      const CastUnitKind typing =
          k.TypeChild(s_type, t_type, SymbolOf(c), &child_s, &child_t);
      if (typing != CastUnitKind::kValidate) {
        frontier->push_back({c, s_type, t_type, typing});
        continue;
      }
      if (prune_subsumed_at_push &&
          ClassifyPair(k.rel, child_s, child_t) == PairAction::kSkip) {
        // Entry counters the child would have charged at its own pop.
        k.CountElement();
        ++k.counters.subtrees_skipped;
        continue;
      }
      frontier->push_back({c, child_s, child_t, CastUnitKind::kValidate});
    }
    std::reverse(frontier->begin() + mark, frontier->end());
    return true;
  }
};

/// Shared root prologue of doValidate(S, S', T). On success fills *unit
/// with the root's CastUnit and returns true; otherwise fills *report
/// (a root the source declares but the target does not counts as visited)
/// and returns false.
inline bool ResolveRootUnit(const TypeRelations& rel, const xml::Document& doc,
                            bool use_symbols, ValidationReport* report,
                            CastUnit* unit) {
  auto fail = [&](std::string message) {
    report->valid = false;
    report->violation = std::move(message);
    report->violation_path = xml::DeweyPath();
    return false;
  };
  if (!doc.has_root()) return fail("document has no root element");
  const xml::NodeId root = doc.root();
  automata::Symbol sym;
  if (use_symbols) {
    sym = doc.symbol(root);
  } else {
    auto found = rel.source().alphabet()->Find(doc.label(root));
    sym = found ? *found : automata::kUnboundSymbol;
  }
  const CastKernel k(rel, /*immediate=*/false);
  TypeId s_root = schema::kInvalidType;
  TypeId t_root = schema::kInvalidType;
  const CastUnitKind typing = k.TypeRoot(sym, &s_root, &t_root);
  if (typing == CastUnitKind::kValidate) {
    *unit = {root, s_root, t_root, CastUnitKind::kValidate};
    return true;
  }
  if (typing == CastUnitKind::kContentMismatch) {
    ++report->counters.nodes_visited;
    ++report->counters.elements_visited;
  }
  return fail(CastKernel::RootMessage(typing, doc.label(root)));
}

}  // namespace xmlreval::core::internal

#endif  // XMLREVAL_CORE_CAST_WALK_H_
