// Differential fuzzing of the incremental streaming cast engine.
//
// Thousands of random documents over random related schema pairs are fed
// to StreamingCastSession in random 1..4096-byte chunks and checked two
// ways:
//   1. Verdict parity with the DOM pipeline (ParseXml + CastValidator) —
//      including truncated inputs, where the cut can land mid-skip, inside
//      markup, or inside a text run — and, on valid documents, equal
//      values of all nine work counters: both drivers run one kernel
//      under one counting discipline.
//   2. Determinism: a chunked session and a one-shot session must produce
//      byte-for-byte identical reports (verdict, message, blamed path,
//      counters, byte accounting) — chunk boundaries must never leak into
//      results.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>

#include "core/cast_validator.h"
#include "core/relations.h"
#include "core/streaming_validator.h"
#include "schema/abstract_schema.h"
#include "tests/test_util.h"
#include "workload/random_docs.h"
#include "workload/random_schemas.h"
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
  schema_options.complex_types = 3 + seed % 5;
  auto source = workload::GenerateRandomSchema(pair.alphabet, schema_options);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  pair.source = std::make_unique<Schema>(std::move(source).value());
  workload::MutationOptions mutation_options;
  mutation_options.seed = seed * 13 + 5;
  mutation_options.mutations = seed % 5;  // 0 = identical pair: max skipping
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

StreamingReport RunSession(const TypeRelations& relations,
                           std::string_view text, std::mt19937_64* rng) {
  StreamingCastSession session(relations);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t chunk = rng == nullptr
                       ? text.size()
                       : std::uniform_int_distribution<size_t>(1, 4096)(*rng);
    chunk = std::min(chunk, text.size() - pos);
    if (!session.Feed(text.substr(pos, chunk)).ok()) break;
    pos += chunk;
  }
  return session.Finish();
}

// The ground truth for arbitrary bytes: parse; parse failure means the
// session must fail; otherwise the DOM cast validator's verdict.
struct DomVerdict {
  bool parsed = false;
  bool valid = false;
  std::string violation;
  ValidationCounters counters;
};

DomVerdict DomCast(const TypeRelations& relations, std::string_view text) {
  DomVerdict v;
  auto doc = xml::ParseXml(text);
  if (!doc.ok()) return v;
  v.parsed = true;
  CastValidator cast(&relations);
  ValidationReport report = cast.Validate(*doc);
  v.valid = report.valid;
  v.violation = report.violation;
  v.counters = report.counters;
  return v;
}

void ExpectCountersEqual(const ValidationCounters& a,
                         const ValidationCounters& b,
                         const std::string& context) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << context;
  EXPECT_EQ(a.elements_visited, b.elements_visited) << context;
  EXPECT_EQ(a.text_nodes_visited, b.text_nodes_visited) << context;
  EXPECT_EQ(a.subtrees_skipped, b.subtrees_skipped) << context;
  EXPECT_EQ(a.disjoint_rejects, b.disjoint_rejects) << context;
  EXPECT_EQ(a.dfa_steps, b.dfa_steps) << context;
  EXPECT_EQ(a.immediate_decisions, b.immediate_decisions) << context;
  EXPECT_EQ(a.simple_checks, b.simple_checks) << context;
  EXPECT_EQ(a.attr_checks, b.attr_checks) << context;
}

void ExpectReportsIdentical(const StreamingReport& a, const StreamingReport& b,
                            const std::string& context) {
  EXPECT_EQ(a.valid, b.valid) << context;
  EXPECT_EQ(a.violation, b.violation) << context;
  EXPECT_EQ(a.violation_path_known, b.violation_path_known) << context;
  EXPECT_EQ(a.violation_path, b.violation_path) << context;
  EXPECT_EQ(a.max_live_frames, b.max_live_frames) << context;
  EXPECT_EQ(a.bytes_skipped, b.bytes_skipped) << context;
  EXPECT_EQ(a.counters.nodes_visited, b.counters.nodes_visited) << context;
  EXPECT_EQ(a.counters.subtrees_skipped, b.counters.subtrees_skipped)
      << context;
  EXPECT_EQ(a.counters.dfa_steps, b.counters.dfa_steps) << context;
  EXPECT_EQ(a.counters.simple_checks, b.counters.simple_checks) << context;
  EXPECT_EQ(a.counters.attr_checks, b.counters.attr_checks) << context;
}

// Sharded so the ~10k documents spread across parallel ctest workers.
class StreamingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFuzz, SessionAgreesWithDomPipeline) {
  const uint64_t shard = GetParam();
  std::mt19937_64 rng(0x5eed0000 + shard);
  uint64_t total_skipped_bytes = 0;
  uint64_t docs = 0;

  for (uint64_t pair_seed = 1; pair_seed <= 7; ++pair_seed) {
    RandomPair pair = MakePair(shard * 101 + pair_seed);
    for (uint64_t doc_seed = 1; doc_seed <= 90; ++doc_seed) {
      workload::RandomDocOptions options;
      options.seed = doc_seed * 61 + shard;
      options.root_label = "root";
      options.max_elements = 1 + static_cast<size_t>(rng() % 60);
      auto doc = workload::SampleDocument(*pair.source, options);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      std::string text = xml::Serialize(*doc);

      // Every third document is truncated at a random byte so cuts land
      // mid-tag, mid-text, and mid-skip.
      if (docs % 3 == 2 && text.size() > 1) {
        text.resize(1 + rng() % (text.size() - 1));
      }
      ++docs;
      std::string context = "shard=" + std::to_string(shard) +
                            " pair=" + std::to_string(pair_seed) +
                            " doc=" + std::to_string(doc_seed);

      StreamingReport chunked = RunSession(*pair.relations, text, &rng);
      StreamingReport oneshot = RunSession(*pair.relations, text, nullptr);
      ExpectReportsIdentical(chunked, oneshot, context);
      total_skipped_bytes += chunked.bytes_skipped;

      DomVerdict dom = DomCast(*pair.relations, text);
      if (!dom.parsed) {
        EXPECT_FALSE(chunked.valid) << context << "\ntext: " << text;
      } else {
        EXPECT_EQ(chunked.valid, dom.valid)
            << context << "\nstream: " << chunked.violation
            << "\ndom: " << dom.violation << "\ntext: " << text;
        if (dom.valid) {
          ExpectCountersEqual(chunked.counters, dom.counters, context);
        }
      }
    }
  }
  EXPECT_GE(docs, 630u);
  // The corpus includes identical source/target pairs, so the raw-byte
  // skip path must actually fire.
  EXPECT_GT(total_skipped_bytes, 0u) << "skip scanner never engaged";
}

// 16 shards x 630 documents ≈ 10k fuzzed documents.
INSTANTIATE_TEST_SUITE_P(Shards, StreamingFuzz,
                         ::testing::Range<uint64_t>(0, 16));

}  // namespace
}  // namespace xmlreval::core
