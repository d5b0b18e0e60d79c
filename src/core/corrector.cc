#include "core/corrector.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/cast_walk.h"
#include "xml/dewey.h"

namespace xmlreval::core {

using automata::Dfa;
using automata::StateId;
using automata::Symbol;

namespace {
constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
// Search states one string repair may hold, against pathological DFAs.
constexpr size_t kMaxRepairStates = 200000;
}  // namespace

// ---------------------------------------------------------------------------
// Minimum-operation string repair: 0-1 BFS over (position, state).
// ---------------------------------------------------------------------------

Result<std::vector<StringEditOp>> MinimalStringRepair(
    const Dfa& dfa, std::span<const Symbol> word,
    const std::vector<bool>& insertable) {
  if (insertable.size() != dfa.alphabet_size()) {
    return Status::InvalidArgument(
        "insertable mask must cover the DFA alphabet");
  }
  size_t n = word.size();
  size_t num_states = dfa.num_states();
  size_t total = (n + 1) * num_states;
  if (total > kMaxRepairStates) {
    return Status::FailedPrecondition("string repair search space too large");
  }
  auto encode = [num_states](size_t pos, StateId q) {
    return pos * num_states + q;
  };

  struct Step {
    uint32_t prev;
    StringEditOp op;
  };
  std::vector<uint64_t> dist(total, kInf);
  std::vector<Step> steps(total);
  std::deque<uint32_t> queue;  // 0-1 BFS

  uint32_t start = static_cast<uint32_t>(encode(0, dfa.start_state()));
  dist[start] = 0;
  queue.push_back(start);

  auto relax = [&](uint32_t from, size_t pos, StateId q, uint64_t cost,
                   const StringEditOp& op) {
    uint32_t code = static_cast<uint32_t>(encode(pos, q));
    if (cost < dist[code]) {
      dist[code] = cost;
      steps[code] = Step{from, op};
      if (cost == dist[from]) {
        queue.push_front(code);  // 0-cost edge
      } else {
        queue.push_back(code);
      }
    }
  };

  uint32_t goal = std::numeric_limits<uint32_t>::max();
  while (!queue.empty()) {
    uint32_t code = queue.front();
    queue.pop_front();
    size_t pos = code / num_states;
    StateId q = static_cast<StateId>(code % num_states);
    uint64_t d = dist[code];
    // 0-1 BFS can enqueue a node twice; skip stale entries.
    if (pos == n && dfa.IsAccepting(q)) {
      goal = code;
      break;
    }
    if (pos < n) {
      // Keep the original symbol (free).
      relax(code, pos + 1, dfa.Next(q, word[pos]), d,
            StringEditOp{StringEditOp::Kind::kKeep, pos, word[pos]});
      // Delete it (cost 1).
      relax(code, pos + 1, q, d + 1,
            StringEditOp{StringEditOp::Kind::kDelete, pos, 0});
    }
    // Insert any allowed symbol before position pos (cost 1).
    for (Symbol s = 0; s < dfa.alphabet_size(); ++s) {
      if (!insertable[s]) continue;
      relax(code, pos, dfa.Next(q, s), d + 1,
            StringEditOp{StringEditOp::Kind::kInsert, pos, s});
    }
  }
  if (goal == std::numeric_limits<uint32_t>::max()) {
    return Status::FailedPrecondition(
        "content model admits no repair (empty language over the allowed "
        "labels)");
  }

  // Reconstruct, then reverse into document order.
  std::vector<StringEditOp> ops;
  uint32_t code = goal;
  while (code != start) {
    ops.push_back(steps[code].op);
    code = steps[code].prev;
  }
  std::reverse(ops.begin(), ops.end());
  return ops;
}

// ---------------------------------------------------------------------------
// DocumentCorrector
// ---------------------------------------------------------------------------

namespace {

// Per symbol of complex type t's padded target `dfa`: the size of the
// smallest valid subtree of its child type (kInf: no child, or unproductive).
std::vector<uint64_t> ChildCosts(const Schema& target, TypeId t,
                                 const Dfa& dfa,
                                 const std::vector<uint64_t>& tree_cost) {
  std::vector<uint64_t> cost(dfa.alphabet_size(), kInf);
  for (const auto& [sym, child] : target.complex_type(t).child_types) {
    cost[sym] = tree_cost[child];
  }
  return cost;
}

// Min cost of an accepting path through `dfa` where stepping on symbol s
// costs symbol_cost[s]; kInf when no accepting state is reachable.
// Dijkstra over the DFA states. When `path` is given and a path exists, it
// receives the labels of one cheapest path.
uint64_t MinAccept(const Dfa& dfa, const std::vector<uint64_t>& symbol_cost,
                   std::vector<Symbol>* path = nullptr) {
  std::vector<uint64_t> dist(dfa.num_states(), kInf);
  // Each state's predecessor on a cheapest path (symbols cost ≥ 1 node).
  std::vector<std::pair<StateId, Symbol>> parent(dfa.num_states());
  using Entry = std::pair<uint64_t, StateId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[dfa.start_state()] = 0;
  heap.emplace(0, dfa.start_state());
  while (!heap.empty()) {
    auto [d, q] = heap.top();
    heap.pop();
    if (d != dist[q]) continue;
    if (dfa.IsAccepting(q)) {
      if (path != nullptr) {
        path->clear();
        for (StateId p = q; p != dfa.start_state(); p = parent[p].first) {
          path->push_back(parent[p].second);
        }
        std::reverse(path->begin(), path->end());
      }
      return d;
    }
    for (Symbol s = 0; s < dfa.alphabet_size(); ++s) {
      if (symbol_cost[s] == kInf) continue;
      uint64_t nd = d + symbol_cost[s];
      StateId next = dfa.Next(q, s);
      if (nd < dist[next]) {
        dist[next] = nd;
        parent[next] = {q, s};
        heap.emplace(nd, next);
      }
    }
  }
  return kInf;
}

}  // namespace

DocumentCorrector::DocumentCorrector(const TypeRelations* relations)
    : relations_(relations) {
  XMLREVAL_CHECK(relations != nullptr, "DocumentCorrector requires relations");
  // Fixpoint: min node count of a valid subtree per TARGET type.
  const Schema& target = relations->target();
  size_t n = target.num_types();
  min_tree_cost_.assign(n, kInf);
  for (TypeId t = 0; t < n; ++t) {
    if (target.IsSimple(t)) min_tree_cost_[t] = 2;  // element + χ leaf
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (TypeId t = 0; t < n; ++t) {
      if (!target.IsComplex(t)) continue;
      const Dfa& dfa = *relations->TargetDfa(t);
      uint64_t best =
          MinAccept(dfa, ChildCosts(target, t, dfa, min_tree_cost_));
      if (best == kInf) continue;
      uint64_t cost = best + 1;  // the element node itself
      if (cost < min_tree_cost_[t]) {
        min_tree_cost_[t] = cost;
        changed = true;
      }
    }
  }
}

std::optional<uint64_t> DocumentCorrector::MinimalSubtreeSize(TypeId t) const {
  if (t >= min_tree_cost_.size() || min_tree_cost_[t] == kInf) {
    return std::nullopt;
  }
  return min_tree_cost_[t];
}

// The fifth driver of the §3.2 kernel, on one explicit stack of units in
// reverse document order. A content repair pushes the children it keeps
// between its deletes and inserts, so steps run in document order.
struct DocumentCorrector::Walk {
  enum class Step : uint8_t {
    kCheck,    // the kernel decides `cast`; a rejection is repaired
    kRecheck,  // kCheck after an attribute repair: a rejection is the content's
    kDelete,   // remove the subtree at cast.node
    kInsert,   // a minimal `label` of type cast.target_type under `parent`,
               // before cast.node (kInvalidNode: as the last child)
  };
  struct Unit {
    Step step;
    CastUnit cast;
    xml::NodeId parent = xml::kInvalidNode;
    Symbol label = 0;
  };

  Walk(const DocumentCorrector& owner, xml::Document* document,
       xml::DocumentEditor* edits)
      : corrector(owner),
        doc(document),
        editor(edits),
        cast(*owner.relations_, *document, /*use_immediate=*/true,
             document->BoundTo(*owner.relations_->source().alphabet())),
        k(cast.k) {
    cast.simple_value = &value;
  }

  const DocumentCorrector& corrector;
  xml::Document* doc;
  xml::DocumentEditor* editor;
  internal::CastWalk cast;
  internal::CastKernel& k;
  CorrectionReport report;
  std::vector<Unit> stack;
  std::vector<CastUnit> children;  // what one ProcessUnit pushes
  std::string value;               // χ of a multi-text simple element

  void Record(CorrectionStep::Kind kind, xml::NodeId node,
              std::string detail) {
    report.steps.push_back(CorrectionStep{
        kind, xml::DeweyPath::Of(*doc, node).ToString(), std::move(detail)});
  }

  Status Run(const CastUnit& root) {
    stack.push_back({Step::kCheck, root});
    while (!stack.empty()) {
      const Unit unit = stack.back();
      stack.pop_back();
      const xml::NodeId node = unit.cast.node;
      switch (unit.step) {
        case Step::kCheck:
        case Step::kRecheck:
          if (cast.ProcessUnit(unit.cast, &children)) {
            for (const CastUnit& child : children) {
              stack.push_back({Step::kCheck, child});
            }
            children.clear();
            continue;
          }
          RETURN_IF_ERROR(unit.step == Step::kCheck ? Repair(unit.cast)
                                                    : RepairContent(unit.cast));
          k.detail = Status::OK();  // Repair reads it; the kernel never clears
          break;
        case Step::kDelete:
          Record(CorrectionStep::Kind::kDeleteSubtree, node,
                 StrCat("remove '", doc->label(node), "'"));
          RETURN_IF_ERROR(DeleteChildren(node));
          RETURN_IF_ERROR(editor->DeleteLeaf(node));
          break;
        case Step::kInsert:
          RETURN_IF_ERROR(InsertMinimal(unit.parent, node, unit.label,
                                        unit.cast.target_type));
          break;
      }
      // A repair may have created nodes, which can move the kernel's columns.
      cast.RetakeView();
    }
    return Status::OK();
  }

  // Repairs the element of `unit`, which the kernel rejected.
  Status Repair(const CastUnit& unit) {
    if (unit.kind != CastUnitKind::kValidate) {
      // A child the source does not type: the document is not source-valid.
      return Status::FailedPrecondition(cast.fail_message);
    }
    const xml::NodeId node = unit.node;
    const TypeId s = unit.source_type;
    const TypeId t = unit.target_type;
    if (k.source.IsSimple(s) != k.target.IsSimple(t)) return Rebuild(node, t);
    if (k.target.IsSimple(t)) return RewriteValue(node, t);
    // Complex → complex: R_dis, the attributes (whose check leaves its
    // diagnostic in k.detail), or else the content failed.
    const bool disjoint = k.rel.Disjoint(s, t);
    if (!disjoint && k.detail.ok()) return RepairContent(unit);
    RETURN_IF_ERROR(RepairAttributes(node, t));
    if (disjoint) return RepairContent(unit);
    stack.push_back({Step::kRecheck, unit});
    return Status::OK();
  }

  // A simple type against a complex one is R_dis, with nothing to salvage:
  // the children make way for a minimal body of t.
  Status Rebuild(xml::NodeId node, TypeId t) {
    RETURN_IF_ERROR(DeleteChildren(node));
    RETURN_IF_ERROR(FillMinimal(node, t));
    if (k.target.IsSimple(t)) {
      Record(CorrectionStep::Kind::kRewriteText, node,
             StrCat("replace content with minimal ",
                    schema::AtomicKindName(k.target.simple_type(t).kind)));
      return Status::OK();
    }
    Record(CorrectionStep::Kind::kInsertElement, node,
           "rebuild content as minimal " + k.target.TypeName(t));
    return Status::OK();
  }

  // χ failed its check (or the simple pair is R_dis): write a minimal value.
  Status RewriteValue(xml::NodeId node, TypeId t) {
    std::string old_value = doc->SimpleContent(node);
    ASSIGN_OR_RETURN(std::string fixed,
                     schema::MinimalValidValue(k.target.simple_type(t)));
    xml::NodeId text = xml::kInvalidNode;
    for (xml::NodeId c = doc->first_child(node); c != xml::kInvalidNode;
         c = doc->next_sibling(c)) {
      if (doc->IsText(c)) {
        if (text == xml::kInvalidNode) {
          text = c;
        } else {
          RETURN_IF_ERROR(editor->DeleteLeaf(c));
        }
      }
    }
    if (text != xml::kInvalidNode) {
      RETURN_IF_ERROR(editor->UpdateText(text, fixed));
    } else {
      RETURN_IF_ERROR(editor->InsertTextFirstChild(node, fixed).status());
    }
    Record(CorrectionStep::Kind::kRewriteText, node,
           "'" + old_value + "' -> '" + fixed + "'");
    return Status::OK();
  }

  // The content model of `unit`'s complex pair rejects its child labels, or
  // the pair is R_dis: the minimum child-list edit, pushed as units.
  Status RepairContent(const CastUnit& unit) {
    const Dfa& dfa = *k.rel.TargetDfa(unit.target_type);
    std::vector<xml::NodeId> kids;
    std::vector<Symbol> word;
    for (xml::NodeId c : xml::ElementChildRange(*doc, unit.node)) {
      // kUnboundSymbol and symbols interned after the relations were
      // computed both fall outside the padded repair DFA.
      const Symbol sym = cast.SymbolOf(c);
      if (sym >= dfa.alphabet_size()) {
        return Status::FailedPrecondition(StrCat(
            "label '", doc->label(c), "' outside the shared alphabet"));
      }
      kids.push_back(c);
      word.push_back(sym);
    }
    std::vector<bool> insertable(dfa.alphabet_size());
    for (const auto& [sym, child] :
         k.target.complex_type(unit.target_type).child_types) {
      insertable[sym] = corrector.min_tree_cost_[child] != kInf;
    }
    ASSIGN_OR_RETURN(std::vector<StringEditOp> ops,
                     MinimalStringRepair(dfa, word, insertable));
    for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
      const size_t i = op->position;
      if (op->kind == StringEditOp::Kind::kInsert) {
        stack.push_back(
            {Step::kInsert,
             {i < kids.size() ? kids[i] : xml::kInvalidNode,
              schema::kInvalidType,
              k.target.ChildType(unit.target_type, op->symbol)},
             unit.node,
             op->symbol});
      } else if (op->kind == StringEditOp::Kind::kDelete) {
        stack.push_back({Step::kDelete, {kids[i]}});
      } else {
        CastUnit child{kids[i]};
        if (k.TypeChild(unit.source_type, unit.target_type, word[i],
                        &child.source_type, &child.target_type) !=
            CastUnitKind::kValidate) {
          return Status::Internal("kept child lost its typing");
        }
        stack.push_back({Step::kCheck, child});
      }
    }
    return Status::OK();
  }

  // Deletes the descendants of `top`, none of which is deleted yet, in
  // post-order: each is a leaf when DocumentEditor::DeleteLeaf removes it.
  Status DeleteChildren(xml::NodeId top) {
    xml::NodeId node = top;
    bool descend = true;
    for (;;) {
      if (descend && doc->HasChildren(node)) {
        node = doc->first_child(node);
        continue;
      }
      if (node == top) return Status::OK();
      RETURN_IF_ERROR(editor->DeleteLeaf(node));
      const xml::NodeId next = doc->next_sibling(node);
      descend = next != xml::kInvalidNode;
      node = descend ? next : doc->parent(node);
    }
  }

  static Result<std::string> MinimalAttributeValue(
      const schema::AttributeDecl& attr) {
    if (attr.fixed) return *attr.fixed;
    return schema::MinimalValidValue(attr.type);
  }

  // Repairs the attribute set of an EXISTING element against a closed
  // complex target type: drop undeclared attributes, rewrite invalid
  // values, add missing required ones.
  Status RepairAttributes(xml::NodeId node, TypeId t) {
    const schema::ComplexType& decl = k.target.complex_type(t);
    if (decl.open_attributes) return Status::OK();
    // Collect fixes first; mutating while iterating is undefined.
    std::vector<std::string> to_remove;
    std::vector<std::pair<std::string, std::string>> to_set;
    for (const xml::Attribute& attr : doc->attributes(node)) {
      auto it = decl.attributes.find(attr.name);
      if (it == decl.attributes.end()) {
        to_remove.push_back(attr.name);
        continue;
      }
      const schema::AttributeDecl& d = it->second;
      bool value_ok = schema::ValidateSimpleValue(d.type, attr.value).ok() &&
                      (!d.fixed || TrimWhitespace(attr.value) ==
                                       TrimWhitespace(*d.fixed));
      if (!value_ok) {
        ASSIGN_OR_RETURN(std::string repaired, MinimalAttributeValue(d));
        to_set.emplace_back(attr.name, std::move(repaired));
      }
    }
    for (const auto& [name, attr] : decl.attributes) {
      if (attr.required && doc->FindAttribute(node, name) == nullptr) {
        ASSIGN_OR_RETURN(std::string value, MinimalAttributeValue(attr));
        to_set.emplace_back(name, std::move(value));
      }
    }
    for (const std::string& name : to_remove) {
      RETURN_IF_ERROR(doc->RemoveAttribute(node, name));
      Record(CorrectionStep::Kind::kRemoveAttribute, node,
             "drop undeclared attribute '" + name + "'");
    }
    for (const auto& [name, value] : to_set) {
      RETURN_IF_ERROR(doc->SetAttribute(node, name, value));
      Record(CorrectionStep::Kind::kSetAttribute, node,
             "set attribute " + name + "=\"" + value + "\"");
    }
    return Status::OK();
  }

  // Fills a freshly inserted EMPTY element `node` with a minimum-size valid
  // body for target type `t`, required attributes included. Recurses once
  // per level of that body, so at most once per target type.
  Status FillMinimal(xml::NodeId node, TypeId t) {
    if (corrector.min_tree_cost_[t] == kInf) {
      return Status::FailedPrecondition(
          "target type '" + k.target.TypeName(t) + "' is not productive");
    }
    if (k.target.IsSimple(t)) {
      ASSIGN_OR_RETURN(std::string value,
                       schema::MinimalValidValue(k.target.simple_type(t)));
      return editor->InsertTextFirstChild(node, value).status();
    }
    for (const auto& [name, attr] : k.target.complex_type(t).attributes) {
      if (!attr.required) continue;
      ASSIGN_OR_RETURN(std::string value, MinimalAttributeValue(attr));
      RETURN_IF_ERROR(doc->SetAttribute(node, name, value));
    }
    const Dfa& dfa = *k.rel.TargetDfa(t);
    std::vector<Symbol> labels;
    MinAccept(dfa, ChildCosts(k.target, t, dfa, corrector.min_tree_cost_),
              &labels);
    xml::NodeId previous = xml::kInvalidNode;
    for (Symbol sym : labels) {
      const std::string& label = k.target.alphabet()->Name(sym);
      Result<xml::NodeId> child =
          previous == xml::kInvalidNode
              ? editor->InsertElementFirstChild(node, label)
              : editor->InsertElementAfter(previous, label);
      RETURN_IF_ERROR(child.status());
      RETURN_IF_ERROR(FillMinimal(*child, k.target.ChildType(t, sym)));
      previous = *child;
    }
    return Status::OK();
  }

  // Inserts a minimal subtree for `t` labelled `sym` under `parent`,
  // before `before` (as the last child when before == kInvalidNode).
  Status InsertMinimal(xml::NodeId parent, xml::NodeId before, Symbol sym,
                       TypeId t) {
    const std::string& label = k.target.alphabet()->Name(sym);
    Result<xml::NodeId> node =
        before != xml::kInvalidNode
            ? editor->InsertElementBefore(before, label)
            : (doc->HasChildren(parent)
                   ? editor->InsertElementAfter(doc->last_child(parent), label)
                   : editor->InsertElementFirstChild(parent, label));
    RETURN_IF_ERROR(node.status());
    RETURN_IF_ERROR(FillMinimal(*node, t));
    Record(CorrectionStep::Kind::kInsertElement, *node,
           "insert minimal '" + label + "' (" + k.target.TypeName(t) + ")");
    return Status::OK();
  }
};

Result<CorrectionReport> DocumentCorrector::CorrectWithEditor(
    xml::Document* doc, xml::DocumentEditor* editor) const {
  if (doc == nullptr || editor == nullptr) {
    return Status::InvalidArgument("Correct requires a document and editor");
  }
  if (!doc->has_root()) {
    return Status::InvalidArgument("document has no root element");
  }
  Walk walk(*this, doc, editor);
  CastUnit root{doc->root()};
  const CastUnitKind typing = walk.k.TypeRoot(
      walk.cast.SymbolOf(root.node), &root.source_type, &root.target_type);
  if (typing == CastUnitKind::kPrecondition) {
    return Status::FailedPrecondition(
        "root is not declared by the source schema");
  }
  if (typing == CastUnitKind::kContentMismatch) {
    return Status::FailedPrecondition(
        "root label '" + std::string(doc->label(root.node)) +
        "' is not declared by the target schema; relabeling the root is "
        "outside the correction model");
  }
  RETURN_IF_ERROR(walk.Run(root));
  return std::move(walk.report);
}

Result<CorrectionReport> DocumentCorrector::Correct(xml::Document* doc) const {
  xml::DocumentEditor editor(doc);
  ASSIGN_OR_RETURN(CorrectionReport report, CorrectWithEditor(doc, &editor));
  editor.Seal();
  RETURN_IF_ERROR(editor.Commit());
  return report;
}

}  // namespace xmlreval::core
