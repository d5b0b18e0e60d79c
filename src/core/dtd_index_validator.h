// DTD-optimized schema cast validation — §3.4 of the paper.
//
// When both schemas are DTDs (every label has one type regardless of
// context) and the document offers direct access to the instances of each
// label (xml::LabelIndex), cast validation can skip the tree traversal
// entirely: only the labels whose (source, target) type pair is neither
// subsumed nor disjoint need their instances' immediate content models
// verified; a single instance of a disjoint-pair label makes the document
// invalid; everything else is untouched. Each checked instance is decided
// by the same per-element kernel as the tree and event drivers
// (core/cast_kernel.h).

#ifndef XMLREVAL_CORE_DTD_INDEX_VALIDATOR_H_
#define XMLREVAL_CORE_DTD_INDEX_VALIDATOR_H_

#include <vector>

#include "core/relations.h"
#include "core/report.h"
#include "xml/label_index.h"
#include "xml/tree.h"

namespace xmlreval::core {

class DtdIndexValidator {
 public:
  struct Options {
    bool use_immediate_content = true;
  };

  /// Fails with kFailedPrecondition when either schema is not DTD-like
  /// (some label is used with two different types). `relations` must
  /// outlive the validator.
  static Result<DtdIndexValidator> Create(const TypeRelations* relations,
                                          const Options& options);
  static Result<DtdIndexValidator> Create(const TypeRelations* relations) {
    return Create(relations, Options{});
  }

  /// Validates using the label index (precondition: doc valid wrt source,
  /// index built over doc).
  ValidationReport Validate(const xml::Document& doc,
                            const xml::LabelIndex& index) const;

  /// Labels this validator will actually examine (diagnostics / benches).
  std::vector<std::string> CheckedLabels() const;

 private:
  DtdIndexValidator() = default;

  struct Walk;  // the label-index driver of one Validate call

  enum class LabelAction : uint8_t { kSkip, kReject, kCheck, kForeign };

  const TypeRelations* relations_ = nullptr;
  Options options_;
  // Per label symbol: the action plus the unique (source, target) types.
  struct LabelPlan {
    LabelAction action;
    TypeId source_type;
    TypeId target_type;
  };
  std::vector<LabelPlan> plans_;  // indexed by Symbol
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_DTD_INDEX_VALIDATOR_H_
