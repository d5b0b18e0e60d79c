#include "core/dtd_index_validator.h"

#include <optional>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/cast_kernel.h"

namespace xmlreval::core {

using automata::Symbol;
using internal::CastKernel;
using internal::PairAction;
using schema::kInvalidType;

namespace {

// For a DTD-like schema, returns the unique type of each label (indexed by
// symbol; kInvalidType = label unused), or an error if some label is used
// with two types.
Result<std::vector<TypeId>> UniqueLabelTypes(const Schema& schema,
                                             size_t alphabet_size) {
  std::vector<TypeId> type_of(alphabet_size, kInvalidType);
  auto assign = [&](Symbol sym, TypeId t) -> Status {
    if (type_of[sym] != kInvalidType && type_of[sym] != t) {
      return Status::FailedPrecondition(
          "schema is not DTD-like: label '" + schema.alphabet()->Name(sym) +
          "' is used with types '" + schema.TypeName(type_of[sym]) +
          "' and '" + schema.TypeName(t) + "'");
    }
    type_of[sym] = t;
    return Status::OK();
  };
  for (const auto& [sym, t] : schema.roots()) {
    RETURN_IF_ERROR(assign(sym, t));
  }
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    if (!schema.IsComplex(t)) continue;
    for (const auto& [sym, child] : schema.complex_type(t).child_types) {
      RETURN_IF_ERROR(assign(sym, child));
    }
  }
  return type_of;
}

}  // namespace

Result<DtdIndexValidator> DtdIndexValidator::Create(
    const TypeRelations* relations) {
  if (relations == nullptr) {
    return Status::InvalidArgument("DtdIndexValidator requires relations");
  }
  const Schema& source = relations->source();
  const Schema& target = relations->target();
  size_t alphabet_size = source.alphabet()->size();

  ASSIGN_OR_RETURN(std::vector<TypeId> source_types,
                   UniqueLabelTypes(source, alphabet_size));
  ASSIGN_OR_RETURN(std::vector<TypeId> target_types,
                   UniqueLabelTypes(target, alphabet_size));

  DtdIndexValidator v;
  v.relations_ = relations;
  v.plans_.resize(alphabet_size);
  for (Symbol sym = 0; sym < alphabet_size; ++sym) {
    LabelPlan& plan = v.plans_[sym];
    plan.source_type = source_types[sym];
    plan.target_type = target_types[sym];
    if (plan.source_type == kInvalidType || plan.target_type == kInvalidType) {
      // A label the source never produces, or one the target cannot type:
      // any instance makes the document invalid under the target DTD.
      plan.action = LabelAction::kForeign;
      continue;
    }
    switch (internal::ClassifyPair(*relations, plan.source_type,
                                   plan.target_type)) {
      case PairAction::kSkip:
        plan.action = LabelAction::kSkip;
        break;
      case PairAction::kReject:
        plan.action = LabelAction::kReject;
        break;
      case PairAction::kCheck:
        plan.action = LabelAction::kCheck;
        break;
    }
  }
  return v;
}

std::vector<std::string> DtdIndexValidator::CheckedLabels() const {
  std::vector<std::string> out;
  for (Symbol sym = 0; sym < plans_.size(); ++sym) {
    if (plans_[sym].action == LabelAction::kCheck) {
      out.push_back(relations_->source().alphabet()->Name(sym));
    }
  }
  return out;
}

// The label-index driver of the §3.2 kernel: rather than walk the tree, it
// visits the instances of each label the plan must check, label by label.
// It counts visits by its plan, blames the instance (or, for a child outside
// Σ, the child), and stops at the first failure — CastWalk's protocol.
struct DtdIndexValidator::Walk {
  Walk(const DtdIndexValidator& validator, const xml::Document& document)
      : plans(validator.plans_),
        k(*validator.relations_, /*immediate=*/true),
        doc(document),
        use_symbols(document.BoundTo(*k.source.alphabet())) {}

  const std::vector<LabelPlan>& plans;
  CastKernel k;
  const xml::Document& doc;
  const bool use_symbols;
  std::string simple_value;  // reused across simple-typed instances
  xml::NodeId fail_node = xml::kInvalidNode;
  std::string fail_message;

  bool Fail(xml::NodeId node, std::string message) {
    fail_node = node;
    fail_message = std::move(message);
    return false;
  }

  Symbol SymbolOf(xml::NodeId c) const {
    if (use_symbols) return doc.symbol(c);
    std::optional<Symbol> sym = k.source.alphabet()->Find(doc.label(c));
    return sym ? *sym : automata::kUnboundSymbol;
  }

  bool Run(const xml::LabelIndex& index) {
    if (doc.has_root()) {
      TypeId s_root = kInvalidType;
      TypeId t_root = kInvalidType;
      const CastUnitKind typing =
          k.TypeRoot(SymbolOf(doc.root()), &s_root, &t_root);
      if (typing != CastUnitKind::kValidate) {
        return Fail(doc.root(),
                    CastKernel::RootMessage(typing, doc.label(doc.root())));
      }
    }

    if (use_symbols && index.HasSymbolBuckets()) {
      // Bound fast path: walk the dense buckets — no hashing, no Find, no
      // label-vector materialization. Out-of-Σ elements live only in the
      // string index, so check the marker once up front.
      if (xml::NodeId unbound = index.FirstUnbound();
          unbound != xml::kInvalidNode) {
        return Fail(unbound, CastKernel::UnboundMessage(doc.label(unbound)));
      }
      for (Symbol sym = 0; sym < index.NumSymbolBuckets(); ++sym) {
        const std::vector<xml::NodeId>& instances = index.Instances(sym);
        if (instances.empty()) continue;
        if (sym >= plans.size()) {
          // Interned after this validator was created: no plan, no type.
          return Fail(instances[0],
                      CastKernel::UnboundMessage(doc.label(instances[0])));
        }
        if (!CheckInstances(sym, instances)) return false;
      }
      return true;
    }

    for (const std::string& label : index.Labels()) {
      const std::vector<xml::NodeId>& instances = index.Instances(label);
      Symbol sym = instances.empty() ? automata::kUnboundSymbol
                                     : SymbolOf(instances[0]);
      if (sym == automata::kUnboundSymbol || sym >= plans.size()) {
        return Fail(instances[0], CastKernel::UnboundMessage(label));
      }
      if (!CheckInstances(sym, instances)) return false;
    }
    return true;
  }

  // Validates every instance of one label.
  bool CheckInstances(Symbol sym, const std::vector<xml::NodeId>& instances) {
    const std::string& label = k.source.alphabet()->Name(sym);
    const LabelPlan& plan = plans[sym];
    switch (plan.action) {
      case LabelAction::kSkip:
        k.counters.subtrees_skipped += instances.size();
        return true;
      case LabelAction::kForeign:
        return Fail(instances[0], StrCat("element '", label,
                                         "' has no type under the target "
                                         "schema"));
      case LabelAction::kReject:
        ++k.counters.disjoint_rejects;
        return Fail(instances[0], k.PairRejectMessage(label, plan.source_type,
                                                      plan.target_type));
      case LabelAction::kCheck:
        break;
    }
    for (xml::NodeId node : instances) {
      k.CountElement();
      if (!CheckInstance(node, plan, label)) return false;
    }
    return true;
  }

  // The immediate content of one instance of a kCheck label.
  bool CheckInstance(xml::NodeId node, const LabelPlan& plan,
                     const std::string& label) {
    const TypeId t_type = plan.target_type;
    if (k.target.IsSimple(t_type)) {
      // Source validity leaves only text children; all count as visited.
      const size_t children = doc.CountChildren(node);
      k.counters.nodes_visited += children;
      k.counters.text_nodes_visited += children;
      simple_value.clear();
      for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
           c = doc.next_sibling(c)) {
        if (doc.IsText(c)) simple_value += doc.text(c);
      }
      if (k.SimpleValueOk(t_type, simple_value)) return true;
      return Fail(node, k.DetailMessage(label));
    }
    if (!k.AttributesOk(t_type, doc.attributes(node))) {
      return Fail(node, k.DetailMessage(label));
    }
    // Every child is checked for Σ membership, in document order, even
    // past the content run's verdict.
    internal::ContentRun run;
    bool accepted = k.StartContent(plan.source_type, t_type, &run);
    for (xml::NodeId c : xml::ElementChildRange(doc, node)) {
      const Symbol child_sym = SymbolOf(c);
      if (child_sym == automata::kUnboundSymbol) {
        return Fail(c, CastKernel::UnboundMessage(doc.label(c)));
      }
      if (accepted && !run.decided) {
        accepted = k.StepContent(&run, child_sym);
      }
    }
    if (accepted && CastKernel::EndContent(run)) return true;
    return Fail(node, k.ContentMessage(label, t_type));
  }
};

ValidationReport DtdIndexValidator::Validate(
    const xml::Document& doc, const xml::LabelIndex& index) const {
  Walk walk(*this, doc);
  ValidationReport report;
  if (!walk.Run(index)) {
    report.valid = false;
    report.violation = std::move(walk.fail_message);
    report.violation_path = xml::DeweyPath::Of(doc, walk.fail_node);
  }
  report.counters = walk.k.counters;
  return report;
}

}  // namespace xmlreval::core
