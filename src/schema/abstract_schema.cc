#include "schema/abstract_schema.h"

#include "automata/product.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::schema {

std::optional<TypeId> Schema::FindType(std::string_view name) const {
  auto it = types_by_name_.find(std::string(name));
  if (it == types_by_name_.end()) return std::nullopt;
  return it->second;
}

SchemaBuilder::SchemaBuilder(std::shared_ptr<Alphabet> alphabet) {
  XMLREVAL_CHECK(alphabet != nullptr, "SchemaBuilder requires an alphabet");
  schema_.alphabet_ = std::move(alphabet);
}

Result<TypeId> SchemaBuilder::Declare(std::string_view name) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (name.empty()) return Status::InvalidArgument("empty type name");
  std::string key(name);
  if (schema_.types_by_name_.count(key)) {
    return Status::InvalidArgument("duplicate type name '" + key + "'");
  }
  TypeId id = static_cast<TypeId>(schema_.names_.size());
  schema_.names_.push_back(key);
  schema_.types_by_name_.emplace(std::move(key), id);
  schema_.simple_.emplace_back();
  schema_.complex_.emplace_back();
  return id;
}

Result<TypeId> SchemaBuilder::DeclareSimpleType(std::string_view name,
                                                const SimpleType& type) {
  ASSIGN_OR_RETURN(TypeId id, Declare(name));
  schema_.simple_[id] = type;
  return id;
}

Result<TypeId> SchemaBuilder::DeclareComplexType(std::string_view name) {
  return Declare(name);
}

Status SchemaBuilder::SetContentModel(TypeId type, automata::RegexPtr regex) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types() || schema_.IsSimple(type)) {
    return Status::InvalidArgument("SetContentModel requires a complex type");
  }
  if (schema_.complex_[type].content_model) {
    return Status::FailedPrecondition("content model already set for type '" +
                                      schema_.TypeName(type) + "'");
  }
  schema_.complex_[type].content_model = std::move(regex);
  return Status::OK();
}

Status SchemaBuilder::SetContentModelDfa(TypeId type, automata::Dfa dfa,
                                         std::vector<Symbol> symbols_used) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types() || schema_.IsSimple(type)) {
    return Status::InvalidArgument(
        "SetContentModelDfa requires a complex type");
  }
  ComplexType& ct = schema_.complex_[type];
  if (ct.content_model || ct.dfa) {
    return Status::FailedPrecondition("content model already set for type '" +
                                      schema_.TypeName(type) + "'");
  }
  ct.dfa = std::move(dfa);
  ct.preset_symbols = std::move(symbols_used);
  return Status::OK();
}

Status SchemaBuilder::MapChild(TypeId type, std::string_view label,
                               TypeId child) {
  return MapChild(type, schema_.alphabet_->Intern(label), child);
}

Status SchemaBuilder::MapChild(TypeId type, Symbol label, TypeId child) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types() || schema_.IsSimple(type)) {
    return Status::InvalidArgument("MapChild requires a complex type");
  }
  if (child >= schema_.num_types()) {
    return Status::InvalidArgument("unknown child type id");
  }
  auto [it, fresh] = schema_.complex_[type].child_types.emplace(label, child);
  if (!fresh && it->second != child) {
    return Status::InvalidSchema(
        "label '" + schema_.alphabet_->Name(label) + "' mapped to two types ('" +
        schema_.TypeName(it->second) + "' and '" + schema_.TypeName(child) +
        "') within type '" + schema_.TypeName(type) +
        "' — violates consistent element declarations");
  }
  return Status::OK();
}

Status SchemaBuilder::DeclareAttribute(TypeId type, std::string_view name,
                                       const SimpleType& attr_type,
                                       bool required,
                                       std::optional<std::string> fixed) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types() || schema_.IsSimple(type)) {
    return Status::InvalidArgument(
        "DeclareAttribute requires a complex type");
  }
  if (!IsValidXmlName(name)) {
    return Status::InvalidArgument("invalid attribute name '" +
                                   std::string(name) + "'");
  }
  if (fixed) {
    Status valid = ValidateSimpleValue(attr_type, *fixed);
    if (!valid.ok()) {
      return Status::InvalidSchema("fixed value of attribute '" +
                                   std::string(name) + "' is invalid: " +
                                   std::string(valid.message()));
    }
  }
  auto [it, fresh] = schema_.complex_[type].attributes.emplace(
      std::string(name),
      AttributeDecl{attr_type, required, std::move(fixed)});
  if (!fresh) {
    return Status::InvalidSchema("attribute '" + std::string(name) +
                                 "' declared twice on type '" +
                                 schema_.TypeName(type) + "'");
  }
  return Status::OK();
}

Status SchemaBuilder::SetOpenAttributes(TypeId type) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types() || schema_.IsSimple(type)) {
    return Status::InvalidArgument(
        "SetOpenAttributes requires a complex type");
  }
  schema_.complex_[type].open_attributes = true;
  return Status::OK();
}

namespace {

// Shared body of the two ValidateTypeAttributes overloads: `Attribute` is
// xml::Attribute or xml::SaxAttribute, read through name/value views.
template <typename Attribute>
Status CheckAttributes(const ComplexType& type,
                       const std::vector<Attribute>& attributes) {
  if (type.open_attributes) return Status::OK();
  for (const Attribute& attr : attributes) {
    const std::string_view name = attr.name;
    const std::string_view value_text = attr.value;
    auto it = type.attributes.find(name);
    if (it == type.attributes.end()) {
      return Status::InvalidArgument(
          StrCat("attribute '", name, "' is not declared"));
    }
    Status value = ValidateSimpleValue(it->second.type, value_text);
    if (!value.ok()) {
      return value.WithContext(StrCat("attribute '", name, "'"));
    }
    if (it->second.fixed &&
        TrimWhitespace(value_text) != TrimWhitespace(*it->second.fixed)) {
      return Status::InvalidArgument(
          StrCat("attribute '", name, "' must have the fixed value '",
                 *it->second.fixed, "'"));
    }
  }
  for (const auto& [name, decl] : type.attributes) {
    if (!decl.required) continue;
    bool present = false;
    for (const Attribute& attr : attributes) {
      if (std::string_view(attr.name) == name) {
        present = true;
        break;
      }
    }
    if (!present) {
      return Status::InvalidArgument("required attribute '" + name +
                                     "' is missing");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateTypeAttributes(const ComplexType& type,
                              const std::vector<xml::Attribute>& attributes) {
  return CheckAttributes(type, attributes);
}

Status ValidateTypeAttributes(
    const ComplexType& type, const std::vector<xml::SaxAttribute>& attributes) {
  return CheckAttributes(type, attributes);
}

Status SchemaBuilder::AddRoot(std::string_view label, TypeId type) {
  if (built_) return Status::FailedPrecondition("schema already built");
  if (type >= schema_.num_types()) {
    return Status::InvalidArgument("unknown root type id");
  }
  Symbol sym = schema_.alphabet_->Intern(label);
  auto [it, fresh] = schema_.roots_.emplace(sym, type);
  if (!fresh && it->second != type) {
    return Status::InvalidSchema("root label '" + std::string(label) +
                                 "' mapped to two types");
  }
  return Status::OK();
}

Result<Schema> SchemaBuilder::Build(const BuildOptions& options) {
  if (built_) return Status::FailedPrecondition("schema already built");
  built_ = true;
  Schema& s = schema_;
  size_t alphabet_size = s.alphabet_->size();
  size_t n = s.num_types();

  // Compile every complex type's content model; verify Σ_τ ⊆ dom(types_τ).
  for (TypeId t = 0; t < n; ++t) {
    if (s.IsSimple(t)) continue;
    ComplexType& ct = s.complex_[t];
    if (!ct.content_model && !ct.dfa) {
      return Status::InvalidSchema("complex type '" + s.TypeName(t) +
                                   "' has no content model");
    }
    std::vector<Symbol> used = ct.content_model
                                   ? ct.content_model->SymbolsUsed()
                                   : ct.preset_symbols;
    for (Symbol sym : used) {
      if (!ct.child_types.count(sym)) {
        return Status::InvalidSchema(
            "type '" + s.TypeName(t) + "': label '" + s.alphabet_->Name(sym) +
            "' appears in the content model but has no child type (types_τ)");
      }
    }
    if (ct.content_model) {
      Result<automata::Dfa> dfa =
          automata::CompileRegex(ct.content_model, alphabet_size,
                                 options.require_deterministic);
      if (!dfa.ok()) {
        return dfa.status().WithContext("type '" + s.TypeName(t) + "'");
      }
      ct.dfa = std::move(dfa).value();
    } else {
      // Preset DFA (e.g. an <all> group): widen to the final alphabet.
      ct.dfa = ct.dfa->PaddedTo(alphabet_size).Minimize();
    }
  }

  // Productivity fixpoint (§3): simple types are productive; a complex type
  // is productive iff its content model accepts some string over the
  // labels whose child types are productive.
  s.productive_.assign(n, false);
  for (TypeId t = 0; t < n; ++t) {
    if (s.IsSimple(t)) s.productive_[t] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (TypeId t = 0; t < n; ++t) {
      if (s.productive_[t] || s.IsSimple(t)) continue;
      const ComplexType& ct = s.complex_[t];
      std::vector<bool> allowed(alphabet_size, false);
      for (const auto& [sym, child] : ct.child_types) {
        if (s.productive_[child]) allowed[sym] = true;
      }
      if (automata::LanguageNonEmptyFiltered(*ct.dfa, allowed)) {
        s.productive_[t] = true;
        changed = true;
      }
    }
  }

  // The §3 rewrite: regexp_τ := regexp_τ ∩ ProdLabels_τ*, realized on the
  // compiled DFA by rerouting transitions on non-productive labels to a
  // fresh sink, then re-minimizing.
  for (TypeId t = 0; t < n; ++t) {
    if (s.IsSimple(t) || !s.productive_[t]) continue;
    ComplexType& ct = s.complex_[t];
    std::vector<bool> allowed(alphabet_size, false);
    bool any_disallowed = false;
    for (const auto& [sym, child] : ct.child_types) {
      if (s.productive_[child]) {
        allowed[sym] = true;
      }
    }
    const automata::Dfa& old = *ct.dfa;
    for (automata::StateId q = 0; q < old.num_states() && !any_disallowed;
         ++q) {
      for (Symbol sym = 0; sym < alphabet_size; ++sym) {
        // A disallowed symbol matters only if it currently leads anywhere
        // useful; rerouting to the sink is harmless otherwise, so just
        // check whether any disallowed symbol exists in Σ_τ.
        if (!allowed[sym] && ct.child_types.count(sym)) {
          any_disallowed = true;
          break;
        }
      }
    }
    if (!any_disallowed) continue;
    size_t sink = old.num_states();
    automata::Dfa rewritten(old.num_states() + 1, alphabet_size);
    rewritten.set_start_state(old.start_state());
    for (automata::StateId q = 0; q < old.num_states(); ++q) {
      rewritten.SetAccepting(q, old.IsAccepting(q));
      for (Symbol sym = 0; sym < alphabet_size; ++sym) {
        bool ok = allowed[sym] || !ct.child_types.count(sym);
        // Labels outside Σ_τ already reject in `old`; keep their edges.
        rewritten.SetTransition(
            q, sym,
            ok ? old.Next(q, sym) : static_cast<automata::StateId>(sink));
      }
    }
    for (Symbol sym = 0; sym < alphabet_size; ++sym) {
      rewritten.SetTransition(static_cast<automata::StateId>(sink), sym,
                              static_cast<automata::StateId>(sink));
    }
    ct.dfa = rewritten.Minimize();
  }

  // Densify types_τ so Schema::ChildType is an array read on the validator
  // hot path. Sized to the alphabet as of Build(); later-interned symbols
  // index past the end and correctly read as kInvalidType.
  for (TypeId t = 0; t < n; ++t) {
    if (s.IsSimple(t)) continue;
    ComplexType& ct = s.complex_[t];
    ct.child_types_dense.assign(alphabet_size, kInvalidType);
    for (const auto& [sym, child] : ct.child_types) {
      ct.child_types_dense[sym] = child;
    }
  }

  // Roots must be productive, or the schema accepts nothing through them.
  for (const auto& [sym, t] : s.roots_) {
    if (!s.productive_[t]) {
      return Status::InvalidSchema("root label '" + s.alphabet_->Name(sym) +
                                   "' has non-productive type '" +
                                   s.TypeName(t) + "'");
    }
  }

  return std::move(schema_);
}

}  // namespace xmlreval::schema
