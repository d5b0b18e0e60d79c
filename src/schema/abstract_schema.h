// Abstract XML Schema — the paper's 4-tuple (Σ, T, ρ, R) from Section 3.
//
//   * Σ is an interned Alphabet, SHARED between the source and target
//     schemas of a cast (the paper assumes a common alphabet),
//   * T is a dense set of TypeIds,
//   * ρ assigns each type either a SimpleType (atomic base + facets) or a
//     complex declaration: a content-model regular expression regexp_τ
//     (compiled to a complete minimal DFA) plus the child-typing function
//     types_τ : Σ_τ → T,
//   * R maps root labels to types.
//
// Schemas are built through SchemaBuilder, which performs the §3 static
// checks: every label in regexp_τ must be typed by types_τ, content models
// must be 1-unambiguous (XML's determinism requirement; the paper's
// optimality result depends on it), and the productivity analysis runs with
// the DFA-rewrite so that only productive behaviour remains (the paper's
// "straightforward algorithm for converting a schema ... into one that
// contains only productive types").

#ifndef XMLREVAL_SCHEMA_ABSTRACT_SCHEMA_H_
#define XMLREVAL_SCHEMA_ABSTRACT_SCHEMA_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/alphabet.h"
#include "automata/dfa.h"
#include "automata/regex.h"
#include "common/result.h"
#include "common/string_util.h"
#include "schema/simple_types.h"
#include "xml/sax.h"
#include "xml/tree.h"

namespace xmlreval::schema {

using TypeId = uint32_t;
inline constexpr TypeId kInvalidType = 0xFFFFFFFFu;

using automata::Alphabet;
using automata::Symbol;

/// One attribute declaration on a complex type. Attributes extend the
/// paper's structural model (which scopes them out); they participate in
/// subsumption and disjointness — see core/relations.cc — and are checked
/// by every validator.
struct AttributeDecl {
  SimpleType type;
  bool required = false;
  /// XSD `fixed`: when the attribute appears, its value must equal this.
  std::optional<std::string> fixed;
};

/// Declaration of one complex type: regexp_τ, types_τ, and attributes.
struct ComplexType {
  automata::RegexPtr content_model;
  /// Compiled, minimized, complete DFA for L(regexp_τ) over the full shared
  /// alphabet (labels outside Σ_τ lead to a rejecting sink). After the
  /// productivity rewrite this recognizes L(regexp_τ) ∩ ProdLabels_τ*.
  std::optional<automata::Dfa> dfa;
  /// types_τ : Σ_τ → T.
  std::unordered_map<Symbol, TypeId> child_types;
  /// Dense types_τ table filled by SchemaBuilder::Build(): indexed by
  /// Symbol, kInvalidType for σ ∉ Σ_τ. Sized to the alphabet at build time,
  /// so symbols interned later (and kUnboundSymbol) fall off the end and
  /// read as kInvalidType — exactly the right answer.
  std::vector<TypeId> child_types_dense;
  /// Σ_τ for DFA-preset content models (empty when regexp-derived).
  std::vector<Symbol> preset_symbols;
  /// Declared attributes by name. Undeclared attributes are invalid;
  /// required ones must be present. Looked up by string_view.
  std::unordered_map<std::string, AttributeDecl, StringViewHash,
                     std::equal_to<>>
      attributes;
  /// Open attribute policy: any attribute (of any value) is permitted and
  /// none is required. DTD-derived schemas are open (ATTLIST constraints
  /// are not modeled); XSD types are closed unless they carry
  /// <anyAttribute>. Open types skip attribute checking everywhere,
  /// including in the subsumption/disjointness analysis.
  bool open_attributes = false;
};

/// Checks an element's attributes against a complex type's declarations:
/// every attribute must be declared with a valid value, every required
/// attribute must be present. Open types accept anything. Names and values
/// are read in place, from the DOM's attributes or from the parser's
/// per-tag views alike.
Status ValidateTypeAttributes(const ComplexType& type,
                              const std::vector<xml::Attribute>& attributes);
Status ValidateTypeAttributes(const ComplexType& type,
                              const std::vector<xml::SaxAttribute>& attributes);

class Schema {
 public:
  const std::shared_ptr<Alphabet>& alphabet() const { return alphabet_; }

  size_t num_types() const { return names_.size(); }
  const std::string& TypeName(TypeId t) const { return names_[t]; }

  /// Looks a type up by name.
  std::optional<TypeId> FindType(std::string_view name) const;

  bool IsSimple(TypeId t) const { return simple_[t].has_value(); }
  bool IsComplex(TypeId t) const { return !IsSimple(t); }

  const SimpleType& simple_type(TypeId t) const { return *simple_[t]; }
  const ComplexType& complex_type(TypeId t) const { return complex_[t]; }

  /// The compiled content-model DFA of a complex type.
  const automata::Dfa& ContentDfa(TypeId t) const { return *complex_[t].dfa; }

  /// ε ∈ L(regexp_τ)?
  bool ContentAcceptsEmpty(TypeId t) const {
    return complex_[t].dfa->AcceptsEmpty();
  }

  /// types_τ(σ), or kInvalidType when σ ∉ Σ_τ. A dense array read — the
  /// validators call this once per element visit.
  TypeId ChildType(TypeId t, Symbol label) const {
    const auto& dense = complex_[t].child_types_dense;
    return label < dense.size() ? dense[label] : kInvalidType;
  }

  /// R(σ): the type assigned to root label σ, or kInvalidType.
  TypeId RootType(Symbol label) const {
    auto it = roots_.find(label);
    return it == roots_.end() ? kInvalidType : it->second;
  }
  const std::unordered_map<Symbol, TypeId>& roots() const { return roots_; }

  /// Whether valid(τ) ≠ ∅ (§3's productivity analysis).
  bool IsProductive(TypeId t) const { return productive_[t]; }

 private:
  friend class SchemaBuilder;
  friend class SchemaCodec;

  std::shared_ptr<Alphabet> alphabet_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, TypeId> types_by_name_;
  std::vector<std::optional<SimpleType>> simple_;
  std::vector<ComplexType> complex_;  // indexed by TypeId; empty slot for simple
  std::unordered_map<Symbol, TypeId> roots_;
  std::vector<bool> productive_;
};

/// Builder with two-phase declaration so recursive types work: declare all
/// types first, then attach content models / child typings, then Build().
class SchemaBuilder {
 public:
  explicit SchemaBuilder(std::shared_ptr<Alphabet> alphabet);

  /// Declares a simple type. Names must be unique within the schema.
  Result<TypeId> DeclareSimpleType(std::string_view name,
                                   const SimpleType& type);

  /// Declares a complex type; content model and child types are attached
  /// afterwards.
  Result<TypeId> DeclareComplexType(std::string_view name);

  /// Sets regexp_τ for a declared complex type.
  Status SetContentModel(TypeId type, automata::RegexPtr regex);

  /// Sets a precompiled content-model DFA instead of a regular expression.
  /// Used for constructs outside 1-unambiguous regex syntax — the XSD
  /// <all> group compiles to a subset (bitmask) DFA directly. The DFA must
  /// be complete over the alphabet AS OF THIS CALL; Build() pads it to the
  /// final alphabet. `symbols_used` lists the labels the model can emit
  /// (the Σ_τ used for the types_τ coverage check).
  Status SetContentModelDfa(TypeId type, automata::Dfa dfa,
                            std::vector<Symbol> symbols_used);

  /// Adds types_τ(label) = child. Each label maps to one type (the XML
  /// Schema "consistent element declarations" rule); re-mapping a label to
  /// a different type is an error.
  Status MapChild(TypeId type, std::string_view label, TypeId child);
  Status MapChild(TypeId type, Symbol label, TypeId child);

  /// Declares an attribute on a complex type. `fixed`, when given, must
  /// itself be a valid value of `attr_type`.
  Status DeclareAttribute(TypeId type, std::string_view name,
                          const SimpleType& attr_type, bool required,
                          std::optional<std::string> fixed = std::nullopt);

  /// Marks a complex type as accepting arbitrary attributes.
  Status SetOpenAttributes(TypeId type);

  /// Adds R(label) = type.
  Status AddRoot(std::string_view label, TypeId type);

  struct BuildOptions {
    /// Reject content models that are not 1-unambiguous.
    bool require_deterministic = true;
    /// Apply the §3 rewrite restricting each content model to productive
    /// labels. When off, non-productive types are only flagged.
    bool prune_nonproductive = true;
  };

  /// Validates the declarations, compiles all content models, runs the
  /// productivity analysis, and produces an immutable Schema.
  Result<Schema> Build(const BuildOptions& options);
  Result<Schema> Build() { return Build(BuildOptions{}); }

 private:
  Result<TypeId> Declare(std::string_view name);

  Schema schema_;
  bool built_ = false;
};

}  // namespace xmlreval::schema

#endif  // XMLREVAL_SCHEMA_ABSTRACT_SCHEMA_H_
