// Full validation — Definition 1 of the paper, and the evaluation's
// baseline (standing in for unmodified Xerces 2.4: validate the entire
// document against the target schema, visiting every node).

#ifndef XMLREVAL_CORE_FULL_VALIDATOR_H_
#define XMLREVAL_CORE_FULL_VALIDATOR_H_

#include "core/report.h"
#include "schema/abstract_schema.h"
#include "xml/tree.h"

namespace xmlreval::core {

using schema::Schema;
using schema::TypeId;

class FullValidator {
 public:
  /// `schema` must outlive the validator.
  explicit FullValidator(const Schema* schema);

  /// doValidate(S, T): root label must be in R; then validate(R(λ(T)), root).
  ValidationReport Validate(const xml::Document& doc) const;

  /// validate(τ, e): the subtree rooted at `node` against type `type`.
  ValidationReport ValidateSubtree(const xml::Document& doc,
                                   xml::NodeId node, TypeId type) const;

 private:
  struct Walk;  // explicit-stack traversal state (counters + violation)

  const Schema* schema_;
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_FULL_VALIDATOR_H_
