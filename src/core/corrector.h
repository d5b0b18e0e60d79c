// Document correction — the paper's stated future work (§7): "exploring
// how a system may automatically correct a document valid according to one
// schema so that it conforms to a new schema."
//
// Given a document valid under the source schema and the precomputed
// TypeRelations, DocumentCorrector::Correct computes and applies an edit
// script (through xml::DocumentEditor, so the repair itself is Δ-encoded
// and incrementally re-verifiable with ModValidator) after which the
// document is valid under the target schema. Every element goes through
// the cast's own §3.2 decision (core/cast_kernel.h) on one explicit stack,
// so subtrees it accepts cost what the cast costs, and only what it
// rejects is repaired:
//
//   * invalid simple values and attributes are rewritten to minimal valid
//     ones, undeclared attributes dropped, required ones added,
//   * a content model the kernel rejects (or an R_dis pair) gets a
//     MINIMUM-OPERATION child-list edit (inserts and deletes; a relabel is
//     delete+insert) against the target DFA, found by 0-1 BFS over (input
//     position × DFA state) — the only place the BFS runs; inserted
//     elements are minimum-size valid subtrees of their target type (sizes
//     from a Bellman-Ford-style fixpoint over the schema, so the recursion
//     provably terminates on productive types), and the children the edit
//     keeps go back through the kernel.
//
// Minimality is per content model (fewest child-list operations), not
// global over the tree — global minimality would have to weigh deleting a
// subtree against the cascade of repairs inside it, which is the open part
// of the problem the paper leaves open. The guarantee provided is
// soundness: after Correct returns OK, full target-validation succeeds
// (property-tested in corrector_test.cc and pipeline_property_test.cc).

#ifndef XMLREVAL_CORE_CORRECTOR_H_
#define XMLREVAL_CORE_CORRECTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/relations.h"
#include "xml/editor.h"
#include "xml/tree.h"

namespace xmlreval::core {

/// One repair applied to the document.
struct CorrectionStep {
  enum class Kind : uint8_t {
    kRewriteText,      // simple value replaced
    kInsertElement,    // missing required element materialized
    kDeleteSubtree,    // disallowed subtree removed
    kSetAttribute,     // required/invalid attribute (re)written
    kRemoveAttribute,  // undeclared attribute dropped
  };
  Kind kind;
  /// Dewey path (in the Δ-encoded tree) of the affected node.
  std::string where;
  std::string detail;
};

struct CorrectionReport {
  std::vector<CorrectionStep> steps;
  bool changed() const { return !steps.empty(); }
};

class DocumentCorrector {
 public:
  /// `relations` must outlive the corrector. Construction precomputes the
  /// minimum-valid-subtree size of every target type.
  explicit DocumentCorrector(const TypeRelations* relations);

  /// Corrects `doc` (valid under the source schema) in place so that it
  /// becomes valid under the target schema, committing the edits. The
  /// report lists every repair.
  Result<CorrectionReport> Correct(xml::Document* doc) const;

  /// As Correct, but drives the caller's editor and does NOT commit, so
  /// the repair stays Δ-encoded for inspection or incremental re-check.
  Result<CorrectionReport> CorrectWithEditor(xml::Document* doc,
                                             xml::DocumentEditor* editor) const;

  /// Size (in nodes) of the smallest tree valid for target type `t`;
  /// nullopt for non-productive types. Exposed for tests.
  std::optional<uint64_t> MinimalSubtreeSize(TypeId t) const;

 private:
  struct Walk;

  const TypeRelations* relations_;
  /// Per target type: node count of the minimum valid subtree (kInf when
  /// non-productive).
  std::vector<uint64_t> min_tree_cost_;
};

/// Minimum-operation edit of `word` so that `dfa` accepts it.
/// Exposed for tests and for callers repairing raw content strings.
struct StringEditOp {
  enum class Kind : uint8_t { kKeep, kInsert, kDelete };
  Kind kind;
  /// Position in the ORIGINAL word (for kInsert: the index the new symbol
  /// is inserted before, which may equal word.size()).
  size_t position;
  /// The symbol written (kInsert) or kept (kKeep); unused for kDelete.
  automata::Symbol symbol;
};

/// Computes a minimum-length op sequence (inserts + deletes; keeps are
/// free) making `word` accepted by `dfa`. Symbols may only be inserted
/// when `insertable` marks them (pass all-true to allow any); this is how
/// the corrector keeps inserted labels within the productive Σ_τ'. Fails
/// when no repair exists or (|word| + 1) × DFA states exceeds 200,000.
Result<std::vector<StringEditOp>> MinimalStringRepair(
    const automata::Dfa& dfa, std::span<const automata::Symbol> word,
    const std::vector<bool>& insertable);

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_CORRECTOR_H_
