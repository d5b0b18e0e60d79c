// The inputs and the deterministic counts of every table in EXPERIMENTS.md.
//
// Each experiment builds its inputs here from fixed seeds and returns what
// it counts: document bytes, nodes visited, symbols scanned, repairs.
// bench_paper times the same inputs and prints the tables;
// tests/paper_claims_test.cc pins every count, so a change that makes a
// validator visit one node more fails tier-1 rather than drifting a table.

#ifndef XMLREVAL_BENCH_PAPER_EXPERIMENTS_H_
#define XMLREVAL_BENCH_PAPER_EXPERIMENTS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/regex_parser.h"
#include "bench/bench_util.h"
#include "core/cast_validator.h"
#include "core/corrector.h"
#include "core/dtd_index_validator.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "core/relations.h"
#include "core/string_revalidator.h"
#include "schema/abstract_schema.h"
#include "workload/po_generator.h"
#include "xml/editor.h"
#include "xml/label_index.h"
#include "xml/serializer.h"

namespace xmlreval::bench {

inline void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "paper experiment: %s\n", what);
    std::abort();
  }
}

// ------------------------------------------------------------ §6 corpus

/// The generator seed of every purchase order of the evaluation.
inline constexpr uint64_t kPoSeed = 42;

/// A purchase order valid under Figure 2, and so under Figure 1a and the
/// relaxed-quantity schema: `items` items with quantities in [1, 99],
/// about half of them carrying the optional shipDate.
inline xml::Document PurchaseOrder(size_t items, uint64_t seed = kPoSeed) {
  workload::PoGeneratorOptions options;
  options.item_count = items;
  options.quantity_max = 99;
  options.ship_date_percent = 50;
  options.seed = seed;
  return workload::GeneratePurchaseOrder(options);
}

/// Table 2: serialized size of the `items`-item order.
inline size_t Table2Bytes(size_t items) {
  return xml::Serialize(PurchaseOrder(items)).size();
}

struct VisitCounts {
  uint64_t cast = 0;
  uint64_t full = 0;
};

/// Nodes visited by the schema cast over `pair` and by full validation
/// against its target. Both must accept `doc`.
inline VisitCounts CastAndFullVisits(const SchemaPair& pair,
                                     const xml::Document& doc) {
  core::ValidationReport cast =
      core::CastValidator(pair.relations.get()).Validate(doc);
  core::ValidationReport full =
      core::FullValidator(pair.target.get()).Validate(doc);
  Require(cast.valid && full.valid, "a purchase order was rejected");
  return {cast.counters.nodes_visited, full.counters.nodes_visited};
}

/// Figure 3a, Experiment 1 (Figure 1a → Figure 2): the cast decides at the
/// root and skips every item, so its count is constant in `items`.
inline VisitCounts Figure3aVisits(size_t items) {
  return CastAndFullVisits(Experiment1Pair(), PurchaseOrder(items));
}

/// Table 3 and Figure 3b, Experiment 2 (quantity < 200 → quantity < 100):
/// the cast visits each item but only checks its quantity.
inline VisitCounts Table3Visits(size_t items) {
  return CastAndFullVisits(Experiment2Pair(), PurchaseOrder(items));
}

// ------------------------------------------------ A1: §4.2 string revalidation

/// The string lengths of A1.
inline constexpr size_t kA1Lengths[] = {16, 256, 4096, 65536};

/// Where the source language a and the target language b part.
enum class Divergence {
  kNone,   // a = b = (p,m*)
  kEarly,  // a = (p?,m*), b = (p,m*): settled by the first symbol
  kLate,   // a = (m*,(e|f)), b = (m*,e): settled by the last symbol
};

inline const char* DivergenceName(Divergence d) {
  switch (d) {
    case Divergence::kNone:
      return "equal languages";
    case Divergence::kEarly:
      return "early divergence";
    case Divergence::kLate:
      return "late divergence";
  }
  return "?";
}

/// A string s ∈ L(a) ∩ L(b) of length n, with the revalidator of (a, b)
/// and the plain target DFA.
struct StringCase {
  automata::Alphabet alphabet;
  std::optional<core::StringRevalidator> reval;
  std::optional<automata::Dfa> target;
  std::vector<automata::Symbol> input;
};

inline std::unique_ptr<StringCase> MakeStringCase(Divergence d, size_t n) {
  const char* a = "(p,m*)";
  const char* b = "(p,m*)";
  if (d == Divergence::kEarly) a = "(p?,m*)";
  if (d == Divergence::kLate) {
    a = "(m*,(e|f))";
    b = "(m*,e)";
  }
  auto c = std::make_unique<StringCase>();
  for (const char* label : {"p", "m", "e", "f"}) c->alphabet.Intern(label);
  auto ra = automata::ParseRegex(a, &c->alphabet);
  auto rb = automata::ParseRegex(b, &c->alphabet);
  Require(ra.ok() && rb.ok(), "A1 regex");
  auto da = automata::CompileRegex(*ra, c->alphabet.size());
  auto db = automata::CompileRegex(*rb, c->alphabet.size());
  Require(da.ok() && db.ok(), "A1 automaton");
  auto reval = core::StringRevalidator::Create(*da, *db);
  Require(reval.ok(), "A1 revalidator");
  c->reval.emplace(std::move(reval).value());
  c->target.emplace(std::move(db).value());
  const automata::Symbol m = *c->alphabet.Find("m");
  if (d != Divergence::kLate) c->input.push_back(*c->alphabet.Find("p"));
  while (c->input.size() + (d == Divergence::kLate ? 1 : 0) < n) {
    c->input.push_back(m);
  }
  if (d == Divergence::kLate) c->input.push_back(*c->alphabet.Find("e"));
  return c;
}

/// Symbols each mechanism reads before its verdict.
struct A1Counts {
  size_t c_immed = 0;  // knows s ∈ L(a)
  size_t b_immed = 0;  // no source knowledge
  size_t plain = 0;    // the target DFA, which has no early exit
};

inline A1Counts A1Symbols(Divergence d, size_t n) {
  auto c = MakeStringCase(d, n);
  core::RevalidationResult cast = c->reval->Revalidate(c->input);
  core::RevalidationResult fresh = c->reval->ValidateFresh(c->input);
  Require(cast.accepted && fresh.accepted && c->target->Accepts(c->input),
          "an A1 string was rejected");
  return {cast.symbols_scanned, fresh.symbols_scanned, c->input.size()};
}

// ------------------------------------------------ A2: §4.3 modified strings

/// A2's string length and edit positions, in percent of the length.
inline constexpr size_t kA2Length = 4096;
inline constexpr int kA2Positions[] = {1, 25, 50, 75, 99};

/// The single-schema update problem over (h,(m|x)*,t): old_s is h m…m t,
/// and new_s replaces the m at `percent`% of the string with x.
struct ModifiedStringCase {
  automata::Alphabet alphabet;
  std::optional<core::StringRevalidator> reval;
  std::vector<automata::Symbol> old_s;
  std::vector<automata::Symbol> new_s;
};

inline std::unique_ptr<ModifiedStringCase> MakeModifiedStringCase(
    int percent, bool enable_reverse) {
  auto c = std::make_unique<ModifiedStringCase>();
  for (const char* label : {"h", "m", "t", "x"}) c->alphabet.Intern(label);
  auto regex = automata::ParseRegex("(h,(m|x)*,t)", &c->alphabet);
  Require(regex.ok(), "A2 regex");
  auto dfa = automata::CompileRegex(*regex, c->alphabet.size());
  Require(dfa.ok(), "A2 automaton");
  core::StringRevalidator::Options options;
  options.enable_reverse = enable_reverse;
  auto reval = core::StringRevalidator::CreateSingle(*dfa, options);
  Require(reval.ok(), "A2 revalidator");
  c->reval.emplace(std::move(reval).value());
  c->old_s.push_back(*c->alphabet.Find("h"));
  c->old_s.resize(kA2Length - 1, *c->alphabet.Find("m"));
  c->old_s.push_back(*c->alphabet.Find("t"));
  const size_t pos = 1 + (kA2Length - 2) * size_t(percent) / 100;
  c->new_s = c->old_s;
  c->new_s[pos] = *c->alphabet.Find("x");
  return c;
}

/// Symbols read to decide new_s: the new string's plus the phase-2 source
/// symbols that recover the state at the edit.
struct A2Counts {
  size_t adaptive = 0;      // forward or backward, by where the edit is
  bool backward = false;    // the adaptive scan chose the reverse automata
  size_t forward_only = 0;  // reverse automata not built
  size_t fresh = 0;         // b_immed over new_s, no source knowledge
};

inline size_t TotalSymbols(const core::RevalidationResult& r) {
  return r.symbols_scanned + r.source_symbols_scanned;
}

inline A2Counts A2Symbols(int percent) {
  auto adaptive = MakeModifiedStringCase(percent, true);
  auto forward = MakeModifiedStringCase(percent, false);
  core::RevalidationResult a =
      adaptive->reval->RevalidateModified(adaptive->old_s, adaptive->new_s);
  core::RevalidationResult f =
      forward->reval->RevalidateModified(forward->old_s, forward->new_s);
  core::RevalidationResult fresh =
      adaptive->reval->ValidateFresh(adaptive->new_s);
  Require(a.accepted && f.accepted && fresh.accepted,
          "an A2 string was rejected");
  return {TotalSymbols(a), a.scanned_backward, TotalSymbols(f),
          TotalSymbols(fresh)};
}

// ------------------------------------------------ A3: preprocessing cost

/// Chain lengths of A3; each schema has one more type than its chain.
inline constexpr int kA3Chains[] = {4, 16, 64, 128};

/// A chain of `depth` complex types t_i with content (leaf_i, child_i+1?)
/// over one integer leaf type capped at `max_value`·10⁹.
inline std::unique_ptr<schema::Schema> BuildChainSchema(
    const std::shared_ptr<schema::Alphabet>& alphabet, int depth,
    int64_t max_value, const std::string& prefix) {
  schema::SchemaBuilder builder(alphabet);
  schema::SimpleType leaf{schema::AtomicKind::kInteger, {}};
  leaf.facets.max_inclusive = max_value * 1000000000;
  schema::TypeId leaf_type = *builder.DeclareSimpleType(prefix + "Leaf", leaf);
  std::vector<schema::TypeId> types(depth);
  for (int i = 0; i < depth; ++i) {
    types[i] = *builder.DeclareComplexType(prefix + "T" + std::to_string(i));
  }
  for (int i = 0; i < depth; ++i) {
    const std::string leaf_label = "leaf" + std::to_string(i);
    automata::RegexPtr content =
        automata::Regex::Sym(alphabet->Intern(leaf_label));
    if (i + 1 < depth) {
      const std::string child_label = "child" + std::to_string(i + 1);
      content = automata::Regex::Concat(
          {content, automata::Regex::Optional(automata::Regex::Sym(
                        alphabet->Intern(child_label)))});
      Require(builder.MapChild(types[i], child_label, types[i + 1]).ok(),
              "A3 child");
    }
    Require(builder.SetContentModel(types[i], content).ok(), "A3 content");
    Require(builder.MapChild(types[i], leaf_label, leaf_type).ok(), "A3 leaf");
  }
  Require(builder.AddRoot("root", types[0]).ok(), "A3 root");
  auto schema = builder.Build();
  Require(schema.ok(), "A3 schema");
  return std::make_unique<schema::Schema>(std::move(schema).value());
}

/// A3's pair: the target's leaf facet is tighter at every depth, so no
/// pair of chain types is subsumed and the fixpoints run to full depth.
struct ChainPair {
  std::shared_ptr<schema::Alphabet> alphabet;
  std::unique_ptr<schema::Schema> source;
  std::unique_ptr<schema::Schema> target;
};

inline ChainPair MakeChainPair(int depth) {
  ChainPair pair;
  pair.alphabet = std::make_shared<schema::Alphabet>();
  pair.source = BuildChainSchema(pair.alphabet, depth, 200, "S");
  pair.target = BuildChainSchema(pair.alphabet, depth, 100, "T");
  return pair;
}

struct RelationCounts {
  size_t subsumed = 0;
  size_t non_disjoint = 0;
};

inline RelationCounts A3Relations(int depth) {
  ChainPair pair = MakeChainPair(depth);
  auto relations =
      core::TypeRelations::Compute(pair.source.get(), pair.target.get());
  Require(relations.ok(), "A3 relations");
  return {relations->CountSubsumed(), relations->CountNonDisjoint()};
}

// ------------------------------------------------ A4: §3.3 cast with edits

/// A4 edits a 500-item order under the single-schema pair.
inline constexpr size_t kA4Items = 500;
inline constexpr size_t kA4Edits[] = {1, 4, 16, 64, 256};

/// Rewrites `k` quantities of `doc` in place, each within the facet, and
/// returns the sealed modification index.
inline xml::ModificationIndex RewriteQuantities(xml::Document* doc,
                                                size_t k) {
  xml::LabelIndex index = xml::LabelIndex::Build(*doc);
  const auto& quantities = index.Instances("quantity");
  xml::DocumentEditor editor(doc);
  for (size_t i = 0; i < k; ++i) {
    xml::NodeId q = quantities[(i * 37) % quantities.size()];
    Require(editor.UpdateText(doc->first_child(q),
                              std::to_string(1 + (i * 7) % 98))
                .ok(),
            "A4 edit");
  }
  return editor.Seal();
}

struct A4Counts {
  uint64_t incremental = 0;  // ModValidator over the edits
  uint64_t full = 0;         // FullValidator over the edited document
};

inline A4Counts A4Visits(size_t k) {
  const SchemaPair& pair = SingleSchemaPair();
  xml::Document doc = PurchaseOrder(kA4Items);
  xml::ModificationIndex mods = RewriteQuantities(&doc, k);
  core::ValidationReport incremental =
      core::ModValidator(pair.relations.get()).Validate(doc, mods);
  core::ValidationReport full =
      core::FullValidator(pair.target.get()).Validate(doc);
  Require(incremental.valid && full.valid, "an A4 document was rejected");
  return {incremental.counters.nodes_visited, full.counters.nodes_visited};
}

// ------------------------------------------------ A5: §3.4 label index

inline constexpr size_t kA5Items[] = {50, 200, 1000};

/// Nodes DtdIndexValidator visits on the Experiment 2 pair with the label
/// index prebuilt.
inline uint64_t A5IndexVisits(size_t items) {
  auto validator =
      core::DtdIndexValidator::Create(Experiment2Pair().relations.get());
  Require(validator.ok(), "A5 validator");
  xml::Document doc = PurchaseOrder(items);
  xml::LabelIndex index = xml::LabelIndex::Build(doc);
  core::ValidationReport report = validator->Validate(doc, index);
  Require(report.valid, "an A5 document was rejected");
  return report.counters.nodes_visited;
}

// ------------------------------------------------ A7: document correction

inline constexpr size_t kA7Items = 500;
inline constexpr size_t kA7Violations[] = {1, 10, 100};

/// A kA7Items order in which `violations` quantities break the Experiment 2
/// target's maxExclusive=100.
inline xml::Document OrderWithBadQuantities(size_t violations) {
  xml::Document doc = PurchaseOrder(kA7Items);
  xml::LabelIndex index = xml::LabelIndex::Build(doc);
  const auto& quantities = index.Instances("quantity");
  for (size_t i = 0; i < violations; ++i) {
    xml::NodeId q = quantities[(i * 13) % quantities.size()];
    Require(doc.SetText(doc.first_child(q), "150").ok(), "A7 edit");
  }
  return doc;
}

/// A kA7Items order with no billTo: valid under Figure 1a, not Figure 2.
inline xml::Document OrderWithoutBillTo() {
  workload::PoGeneratorOptions options;
  options.item_count = kA7Items;
  options.include_bill_to = false;
  options.seed = kPoSeed;
  return workload::GeneratePurchaseOrder(options);
}

/// Repairs the corrector makes to `doc` for `pair`'s target.
inline size_t Repairs(const SchemaPair& pair, xml::Document doc) {
  auto report = core::DocumentCorrector(pair.relations.get()).Correct(&doc);
  Require(report.ok(), "A7 correction");
  Require(core::FullValidator(pair.target.get()).Validate(doc).valid,
          "an A7 repair left the document invalid");
  return report->steps.size();
}

}  // namespace xmlreval::bench

#endif  // XMLREVAL_BENCH_PAPER_EXPERIMENTS_H_
