#include "core/full_validator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::core {

using automata::Symbol;
using schema::kInvalidType;

FullValidator::FullValidator(const Schema* schema) : schema_(schema) {
  XMLREVAL_CHECK(schema != nullptr, "FullValidator requires a schema");
}

// Definition 1's validate(τ, e) over an explicit preorder stack: a node's
// own content is checked when it is popped, and its element children are
// pushed in reverse so the first pops next. The visit order, the first
// failure and the counters are those of the recursive definition, at O(1)
// native stack for any depth. Dewey paths are built only for the failure.
struct FullValidator::Walk {
  struct Unit {
    xml::NodeId node;
    TypeId type;
  };

  const Schema& schema;
  const xml::Document& doc;
  // Document bound to this schema's alphabet: read node symbols directly.
  bool use_symbols;
  // Violation paths are relative to this node (the root for Validate).
  xml::NodeId anchor;
  ValidationReport report;
  std::vector<Unit> stack;

  bool Fail(xml::NodeId node, std::string message) {
    report.valid = false;
    report.violation = std::move(message);
    report.violation_path = xml::DeweyPath::Relative(doc, node, anchor);
    return false;
  }

  Symbol SymbolOf(xml::NodeId c) const {
    if (use_symbols) return doc.symbol(c);
    auto sym = schema.alphabet()->Find(doc.label(c));
    return sym ? *sym : automata::kUnboundSymbol;
  }

  void Run(xml::NodeId node, TypeId type) {
    stack.push_back({node, type});
    while (!stack.empty()) {
      const Unit unit = stack.back();
      stack.pop_back();
      if (!ValidateNode(unit.node, unit.type)) return;
    }
  }

  // One node of validate(τ, e) from Definition 1's pseudocode; the
  // recursion into the children becomes pushes onto `stack`.
  bool ValidateNode(xml::NodeId node, TypeId type) {
    ++report.counters.nodes_visited;
    ++report.counters.elements_visited;

    if (schema.IsSimple(type)) {
      // Simple content: no element children; the (possibly empty)
      // concatenated text is the χ value checked against the facets.
      std::string value;
      for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
           c = doc.next_sibling(c)) {
        if (doc.IsElement(c)) {
          return Fail(c, StrCat("element '", doc.label(c),
                                "' not allowed under '", doc.label(node),
                                "', whose type '", schema.TypeName(type),
                                "' is simple"));
        }
        ++report.counters.nodes_visited;
        ++report.counters.text_nodes_visited;
        value += doc.text(c);
      }
      ++report.counters.simple_checks;
      Status check = schema::ValidateSimpleValue(schema.simple_type(type),
                                                 value);
      if (!check.ok()) {
        return Fail(node, StrCat("element '", doc.label(node), "': ",
                                 check.message()));
      }
      return true;
    }

    // Attributes first (complex types only; simple-typed elements carry no
    // attribute constraints in this model).
    const schema::ComplexType& decl = schema.complex_type(type);
    if (!decl.open_attributes) {
      ++report.counters.attr_checks;
      Status attrs = schema::ValidateTypeAttributes(decl, doc.attributes(node));
      if (!attrs.ok()) {
        return Fail(node, StrCat("element '", doc.label(node), "': ",
                                 attrs.message()));
      }
    }

    // Complex content: text children must be ignorable whitespace; the
    // child-label string must be in L(regexp_τ); children are validated
    // next, in document order.
    const automata::Dfa& dfa = schema.ContentDfa(type);
    automata::StateId q = dfa.start_state();
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      if (doc.IsText(c)) {
        ++report.counters.nodes_visited;
        ++report.counters.text_nodes_visited;
        if (!IsAllXmlWhitespace(doc.text(c))) {
          return Fail(c, StrCat("character data not allowed under '",
                                doc.label(node), "', whose type '",
                                schema.TypeName(type),
                                "' has element-only content"));
        }
        continue;
      }
      Symbol sym = SymbolOf(c);
      if (sym >= dfa.alphabet_size() ||
          schema.ChildType(type, sym) == kInvalidType) {
        return Fail(c, StrCat("element '", doc.label(c),
                              "' not allowed by the content model of type '",
                              schema.TypeName(type), "'"));
      }
      q = dfa.Next(q, sym);
      ++report.counters.dfa_steps;
    }
    if (!dfa.IsAccepting(q)) {
      return Fail(node, StrCat("children of '", doc.label(node),
                               "' do not match the content model of type '",
                               schema.TypeName(type), "'"));
    }

    // Every element child, with types_τ(λ(child)); reversed so the first
    // child pops first.
    const size_t mark = stack.size();
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      if (doc.IsElement(c)) {
        stack.push_back({c, schema.ChildType(type, SymbolOf(c))});
      }
    }
    std::reverse(stack.begin() + mark, stack.end());
    return true;
  }
};

ValidationReport FullValidator::Validate(const xml::Document& doc) const {
  // One span per document — the Definition 1 full-traversal phase.
  obs::Span span("full.traverse");
  Walk walk{*schema_, doc, doc.BoundTo(*schema_->alphabet()), doc.root(), {},
            {}};
  if (!doc.has_root()) {
    walk.report.valid = false;
    walk.report.violation = "document has no root element";
    return std::move(walk.report);
  }
  Symbol sym = walk.SymbolOf(doc.root());
  TypeId root_type = sym != automata::kUnboundSymbol ? schema_->RootType(sym)
                                                     : kInvalidType;
  if (root_type == kInvalidType) {
    ++walk.report.counters.nodes_visited;
    ++walk.report.counters.elements_visited;
    walk.Fail(doc.root(), StrCat("root element '", doc.label(doc.root()),
                                 "' is not declared by the schema"));
    return std::move(walk.report);
  }
  walk.Run(doc.root(), root_type);
  AttachTraceArgs(span, walk.report.counters);
  return std::move(walk.report);
}

ValidationReport FullValidator::ValidateSubtree(const xml::Document& doc,
                                                xml::NodeId node,
                                                TypeId type) const {
  Walk walk{*schema_, doc, doc.BoundTo(*schema_->alphabet()), node, {}, {}};
  walk.Run(node, type);
  return std::move(walk.report);
}

}  // namespace xmlreval::core
