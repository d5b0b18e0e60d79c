// Whole-pipeline property tests over RANDOM schema pairs: generate a
// schema S, mutate it into S', sample documents valid under S, and require
// every component to agree with ground truth. This is the widest net in
// the suite — any soundness bug in the relations, a validator, the
// corrector, or the streaming path shows up here as a disagreement.

#include <gtest/gtest.h>

#include "core/cast_validator.h"
#include "core/corrector.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "core/relations.h"
#include "core/streaming_validator.h"
#include "schema/abstract_schema.h"
#include "tests/test_util.h"
#include "workload/random_docs.h"
#include "workload/random_schemas.h"
#include "workload/update_workload.h"
#include "xml/editor.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlreval::core {
namespace {

using schema::Schema;

struct RandomPair {
  std::shared_ptr<schema::Alphabet> alphabet;
  std::unique_ptr<Schema> source;
  std::unique_ptr<Schema> target;
  std::unique_ptr<TypeRelations> relations;
};

RandomPair MakePair(uint64_t seed) {
  RandomPair pair;
  pair.alphabet = std::make_shared<schema::Alphabet>();
  workload::RandomSchemaOptions schema_options;
  schema_options.seed = seed;
  schema_options.complex_types = 3 + seed % 4;
  schema_options.all_group_percent = 25;  // exercise preset-DFA types
  auto source = workload::GenerateRandomSchema(pair.alphabet, schema_options);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  pair.source = std::make_unique<Schema>(std::move(source).value());
  workload::MutationOptions mutation_options;
  mutation_options.seed = seed * 7 + 1;
  mutation_options.mutations = 1 + seed % 4;
  auto target = workload::MutateSchema(*pair.source, mutation_options);
  EXPECT_TRUE(target.ok()) << target.status().ToString();
  pair.target = std::make_unique<Schema>(std::move(target).value());
  auto relations =
      TypeRelations::Compute(pair.source.get(), pair.target.get());
  EXPECT_TRUE(relations.ok()) << relations.status().ToString();
  pair.relations =
      std::make_unique<TypeRelations>(std::move(relations).value());
  return pair;
}

class PipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineProperty, SampledDocumentsAreSourceValid) {
  RandomPair pair = MakePair(GetParam());
  FullValidator source_full(pair.source.get());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed;
    options.root_label = "root";
    options.max_elements = 50;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ValidationReport report = source_full.Validate(*doc);
    EXPECT_TRUE(report.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed << ": "
        << report.violation;
  }
}

TEST_P(PipelineProperty, CastAgreesWithFullValidation) {
  RandomPair pair = MakePair(GetParam());
  CastValidator cast(pair.relations.get());
  FullValidator target_full(pair.target.get());
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 17;
    options.root_label = "root";
    options.max_elements = 50;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());
    ValidationReport cast_report = cast.Validate(*doc);
    ValidationReport full_report = target_full.Validate(*doc);
    EXPECT_EQ(cast_report.valid, full_report.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed
        << "\n  cast: " << cast_report.violation
        << "\n  full: " << full_report.violation << "\n  doc:\n"
        << xml::Serialize(*doc);
    EXPECT_LE(cast_report.counters.nodes_visited,
              full_report.counters.nodes_visited + 1);
  }
}

TEST_P(PipelineProperty, StreamingCastAgreesWithDomCast) {
  RandomPair pair = MakePair(GetParam());
  CastValidator cast(pair.relations.get());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 23 + 5;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());
    std::string text = xml::Serialize(*doc);
    StreamingCastSession session(*pair.relations);
    (void)session.Feed(text);  // a decided verdict is read from Finish
    const StreamingReport& streamed = session.Finish();
    ValidationReport reference = cast.Validate(*doc);
    EXPECT_EQ(streamed.valid, reference.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed
        << "\n  stream: " << streamed.violation
        << "\n  dom: " << reference.violation;
  }
}

TEST_P(PipelineProperty, ModValidatorAgreesWithGroundTruth) {
  RandomPair pair = MakePair(GetParam());
  ModValidator incremental(pair.relations.get());
  FullValidator target_full(pair.target.get());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 29 + 3;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());

    xml::DocumentEditor editor(&*doc);
    workload::UpdateWorkloadOptions update_options;
    update_options.seed = seed * 31 + GetParam();
    update_options.edit_count = 1 + seed % 4;
    auto applied =
        workload::ApplyRandomUpdates(&*doc, &editor, update_options);
    ASSERT_TRUE(applied.ok());

    xml::ModificationIndex mods = editor.Seal();
    ValidationReport incremental_report = incremental.Validate(*doc, mods);
    ASSERT_OK(editor.Commit());
    ValidationReport ground_truth = target_full.Validate(*doc);
    EXPECT_EQ(incremental_report.valid, ground_truth.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed
        << "\n  incremental: " << incremental_report.violation
        << "\n  ground truth: " << ground_truth.violation << "\n  doc:\n"
        << xml::Serialize(*doc);
  }
}

// Binding-coherence invariant: after arbitrary edit batches and parse
// round-trips, every live element of a bound document satisfies
// symbol(n) == alphabet.Find(label(n)) (kUnboundSymbol on a miss).
void ExpectBindingCoherent(const xml::Document& doc,
                           const schema::Alphabet& alphabet,
                           uint64_t pair_seed, uint64_t doc_seed) {
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (!doc.IsAlive(n) || !doc.IsElement(n)) continue;
    auto found = alphabet.Find(doc.label(n));
    automata::Symbol want = found ? *found : automata::kUnboundSymbol;
    ASSERT_EQ(doc.symbol(n), want)
        << "pair seed " << pair_seed << ", doc seed " << doc_seed
        << ", label " << doc.label(n);
  }
}

TEST_P(PipelineProperty, BindingStaysCoherentUnderEditsAndRoundTrips) {
  RandomPair pair = MakePair(GetParam());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 37 + 11;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());
    ASSERT_OK(doc->Bind(pair.alphabet));
    ExpectBindingCoherent(*doc, *pair.alphabet, GetParam(), seed);

    // Random edit batch (insert/delete/rename mix), then commit.
    xml::DocumentEditor editor(&*doc);
    workload::UpdateWorkloadOptions update_options;
    update_options.seed = seed * 41 + GetParam();
    update_options.edit_count = 1 + seed % 5;
    auto applied =
        workload::ApplyRandomUpdates(&*doc, &editor, update_options);
    ASSERT_TRUE(applied.ok());
    editor.Seal();
    ASSERT_OK(editor.Commit());
    ExpectBindingCoherent(*doc, *pair.alphabet, GetParam(), seed);

    // Serialize → reparse with an interning alphabet: coherent again.
    std::string text = xml::Serialize(*doc);
    xml::ParseOptions parse_options;
    parse_options.intern_alphabet = pair.alphabet;
    auto reparsed = xml::ParseXml(text, parse_options);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    ASSERT_TRUE(reparsed->BoundTo(*pair.alphabet));
    ExpectBindingCoherent(*reparsed, *pair.alphabet, GetParam(), seed);
  }
}

TEST_P(PipelineProperty, BoundAndUnboundValidationAgree) {
  RandomPair pair = MakePair(GetParam());
  CastValidator cast(pair.relations.get());
  FullValidator target_full(pair.target.get());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 43 + 7;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());

    ValidationReport unbound_cast = cast.Validate(*doc);
    ValidationReport unbound_full = target_full.Validate(*doc);
    ASSERT_OK(doc->Bind(pair.alphabet));
    ValidationReport bound_cast = cast.Validate(*doc);
    ValidationReport bound_full = target_full.Validate(*doc);

    EXPECT_EQ(bound_cast.valid, unbound_cast.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed
        << "\n  bound: " << bound_cast.violation
        << "\n  unbound: " << unbound_cast.violation;
    EXPECT_EQ(bound_full.valid, unbound_full.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed
        << "\n  bound: " << bound_full.violation
        << "\n  unbound: " << unbound_full.violation;
    // Same traversal either way — only the symbol source differs.
    EXPECT_EQ(bound_cast.counters.nodes_visited,
              unbound_cast.counters.nodes_visited);
  }
}

TEST_P(PipelineProperty, CorrectorProducesTargetValidDocuments) {
  RandomPair pair = MakePair(GetParam());
  DocumentCorrector corrector(pair.relations.get());
  FullValidator target_full(pair.target.get());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 41 + 7;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());
    auto report = corrector.Correct(&*doc);
    ASSERT_TRUE(report.ok())
        << "pair seed " << GetParam() << ": " << report.status().ToString();
    ValidationReport check = target_full.Validate(*doc);
    EXPECT_TRUE(check.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed << ": "
        << check.violation << " after " << report->steps.size()
        << " repairs\n  doc:\n"
        << xml::Serialize(*doc);

    // The same repair, left Δ-encoded, re-verifies incrementally.
    auto again = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(again.ok());
    xml::DocumentEditor editor(&*again);
    auto edited = corrector.CorrectWithEditor(&*again, &editor);
    ASSERT_TRUE(edited.ok()) << edited.status().ToString();
    xml::ModificationIndex mods = editor.Seal();
    ValidationReport incremental = ModValidator(pair.relations.get())
                                       .Validate(*again, mods);
    EXPECT_TRUE(incremental.valid)
        << "pair seed " << GetParam() << ", doc seed " << seed << ": "
        << incremental.violation;
    ASSERT_OK(editor.Commit());
    EXPECT_TRUE(target_full.Validate(*again).valid)
        << "pair seed " << GetParam() << ", doc seed " << seed;
  }
}

TEST_P(PipelineProperty, SubsumptionIsSemanticallySound) {
  // For every subsumed pair (s, t): a document sampled with s at the root
  // must be valid for t. Checked via per-type subtree validation.
  RandomPair pair = MakePair(GetParam());
  FullValidator target_full(pair.target.get());
  // Sample docs from the source root and spot-check the subsumed root pair
  // (deep per-type sampling is covered by the cast-agreement test).
  schema::TypeId s_root =
      pair.source->RootType(*pair.alphabet->Find("root"));
  schema::TypeId t_root =
      pair.target->RootType(*pair.alphabet->Find("root"));
  if (!pair.relations->Subsumed(s_root, t_root)) return;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    workload::RandomDocOptions options;
    options.seed = seed * 53;
    options.root_label = "root";
    options.max_elements = 40;
    auto doc = workload::SampleDocument(*pair.source, options);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(target_full.Validate(*doc).valid)
        << "R_sub claimed subsumption but a source document is "
           "target-invalid (pair seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace xmlreval::core
