#include "core/cast_validator.h"

#include "common/macros.h"
#include "core/cast_walk.h"
#include "obs/trace.h"
#include "xml/dewey.h"

namespace xmlreval::core {

CastValidator::CastValidator(const TypeRelations* relations,
                             const Options& options)
    : relations_(relations), options_(options) {
  XMLREVAL_CHECK(relations != nullptr, "CastValidator requires relations");
}

namespace {

// Drains `scratch->frontier` (already seeded) through one CastWalk. On
// failure the Dewey path is reconstructed lazily.
ValidationReport Drain(const TypeRelations& relations,
                       const CastValidator::Options& options,
                       const xml::Document& doc, CastScratch* scratch,
                       ValidationReport report) {
  internal::CastWalk walk(relations, doc, options.use_immediate_content,
                          doc.BoundTo(*relations.source().alphabet()));
  walk.simple_value = &scratch->simple_value;
  std::vector<CastUnit>& frontier = scratch->frontier;
  while (!frontier.empty()) {
    CastUnit unit = frontier.back();
    frontier.pop_back();
    // Pull the next pending unit's row toward cache while this unit's
    // content scan runs — the frontier is LIFO, so back() is what pops
    // next unless this unit pushes children (whose rows are adjacent).
    if (!frontier.empty()) walk.hv.PrefetchRow(frontier.back().node);
    if (!walk.ProcessUnit(unit, &frontier)) {
      report.valid = false;
      report.violation = std::move(walk.fail_message);
      report.violation_path = xml::DeweyPath::Of(doc, walk.fail_node);
      frontier.clear();
      break;
    }
  }
  report.counters = walk.k.counters;
  return report;
}

}  // namespace

ValidationReport CastValidator::Validate(const xml::Document& doc) const {
  CastScratch scratch;
  return Validate(doc, &scratch);
}

ValidationReport CastValidator::Validate(const xml::Document& doc,
                                         CastScratch* scratch) const {
  // One span per document — the §3.2 tree-traversal phase. Args carry the
  // domain counters the paper's evaluation is built on.
  obs::Span span("cast.traverse");
  ValidationReport report;
  CastUnit root;
  if (!internal::ResolveRootUnit(
          *relations_, doc,
          doc.BoundTo(*relations_->source().alphabet()), &report, &root)) {
    return report;
  }
  scratch->frontier.clear();
  scratch->frontier.push_back(root);
  report = Drain(*relations_, options_, doc, scratch, std::move(report));
  AttachTraceArgs(span, report.counters);
  return report;
}

}  // namespace xmlreval::core
