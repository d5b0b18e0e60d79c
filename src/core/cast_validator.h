// Schema cast validation — §3.2 of the paper.
//
// Validates a document KNOWN to be valid with respect to the source schema
// against the target schema, validating "with respect to S and S' in
// parallel" and using the precomputed R_sub / R_dis relations to skip
// subtrees (subsumed pairs) or reject immediately (disjoint pairs).
// Content models are checked with the pair immediate-decision automata of
// §4.2 when available, so each child-label string is scanned only as far
// as a verdict requires.
//
// The traversal is an explicit preorder frontier (a stack of CastUnits),
// not recursion: documents of pathological depth validate in O(1) native
// stack, and the same per-unit engine (core/cast_walk.h) powers both this
// serial validator and ParallelCastValidator, whose tasks process disjoint
// slices of the frontier.
//
// PRECONDITION: the document is valid with respect to relations->source().
// Feeding a source-invalid document is library misuse; the validator may
// then return either verdict (exactly like the paper's algorithm, whose
// correctness theorem assumes s ∈ L(a)).

#ifndef XMLREVAL_CORE_CAST_VALIDATOR_H_
#define XMLREVAL_CORE_CAST_VALIDATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relations.h"
#include "core/report.h"
#include "xml/tree.h"

namespace xmlreval::core {

/// What popping a frontier unit means. Child-typing failures discovered
/// while expanding a parent are DEFERRED: the parent pushes a poisoned
/// unit at the child's frontier position instead of failing on the spot,
/// so failures surface in exactly the order the recursive algorithm
/// reported them (everything document-order-before the child is validated
/// first) — the invariant the parallel engine's first-failure tracking is
/// built on.
enum class CastUnitKind : uint8_t {
  kValidate,         // run validate(τ, τ', e) on this node
  kUnboundLabel,     // label outside Σ: fail when popped
  kContentMismatch,  // types_τ'(λ) undefined: content-model fail at parent
  kPrecondition,     // types_τ(λ) undefined: source precondition fail
};

/// One pending subtree of the traversal frontier. For kValidate units the
/// types are the node's own (source, target) pair; for poisoned units they
/// are the PARENT's pair (the failure message names the parent's types).
struct CastUnit {
  xml::NodeId node = xml::kInvalidNode;
  TypeId source_type = schema::kInvalidType;
  TypeId target_type = schema::kInvalidType;
  CastUnitKind kind = CastUnitKind::kValidate;
};

/// Reusable per-walk buffers: the frontier stack (O(max pending width))
/// and the multi-chunk simple-value buffer. A warmed scratch makes repeat
/// validation allocation-free (binding_alloc_test pins this).
struct CastScratch {
  std::vector<CastUnit> frontier;
  std::string simple_value;
};

class CastValidator {
 public:
  struct Options {
    /// Check content models with c_immed (§4.2) instead of running the
    /// target DFA over all children. The paper's Xerces experiments turn
    /// this OFF ("we do not use the algorithms of Section 4 ... to perform
    /// a fair comparison"); bench A1 measures its effect.
    bool use_immediate_content = true;
  };

  /// `relations` must outlive the validator.
  explicit CastValidator(const TypeRelations* relations)
      : CastValidator(relations, Options{}) {}
  CastValidator(const TypeRelations* relations, const Options& options);

  /// doValidate(S, S', T). The scratch overload reuses the caller's
  /// buffers (zero allocations once warmed); the plain overload pays a
  /// fresh frontier per call.
  ValidationReport Validate(const xml::Document& doc) const;
  ValidationReport Validate(const xml::Document& doc,
                            CastScratch* scratch) const;

 private:
  const TypeRelations* relations_;
  Options options_;
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_CAST_VALIDATOR_H_
