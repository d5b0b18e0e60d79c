// Schema cast validation WITH modifications — §3.3 of the paper.
//
// Input: a Δ-encoded document (built by xml::DocumentEditor: deleted nodes
// still linked but annotated Δ^a_ε, inserted nodes Δ^ε_b, renamed Δ^a_b,
// text edits Δ^χ_χ) whose PRE-EDIT state was valid with respect to the
// source schema, plus the sealed ModificationIndex answering the
// modified() predicate by NodeId. Decides validity of the post-edit
// document with respect to the target schema.
//
// Case analysis per subtree (τ from S, τ' from S'):
//   1. not modified(t'')       → plain schema-cast validation (§3.2),
//   2. deleted (Δ^a_ε)         → skipped entirely,
//   3. inserted (Δ^ε_b)        → full validation against τ' (no source
//                                 knowledge exists),
//   4. otherwise               → re-check the node's own content against τ'
//                                 — the child-label string under the
//                                 Proj_new projection — with §4.3's scan
//                                 (core::RevalidateEdited) when the pair
//                                 has a c_immed; then descend per child
//                                 with (types_τ(Proj_old), types_τ'(Proj_new)).
//
// The walk is one explicit preorder stack, so any depth validates in O(1)
// native stack. ModValidator is the fourth driver of the §3.2 kernel
// (core/cast_kernel.h): every case-1 child is a CastUnit drained by
// CastWalk::ProcessUnit on one shared frontier, and the simple-value,
// attribute and content messages of cases 3 and 4 are the kernel's where
// their text is the same.

#ifndef XMLREVAL_CORE_MOD_VALIDATOR_H_
#define XMLREVAL_CORE_MOD_VALIDATOR_H_

#include "core/relations.h"
#include "core/report.h"
#include "xml/editor.h"
#include "xml/tree.h"

namespace xmlreval::core {

class ModValidator {
 public:
  /// `relations` must outlive the validator.
  explicit ModValidator(const TypeRelations* relations);

  /// Validates the Δ-encoded `doc` with modifications `mods` against the
  /// target schema. Precondition: the pre-edit document was valid with
  /// respect to the source schema.
  ValidationReport Validate(const xml::Document& doc,
                            const xml::ModificationIndex& mods) const;

 private:
  struct Walk;

  const TypeRelations* relations_;
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_MOD_VALIDATOR_H_
