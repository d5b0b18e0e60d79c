// Shared fixtures for the benchmark binaries: the paper's schema pairs,
// preprocessed once per process, and median wall-clock timing.

#ifndef XMLREVAL_BENCH_BENCH_UTIL_H_
#define XMLREVAL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/relations.h"
#include "schema/xsd_parser.h"
#include "workload/po_schemas.h"

namespace xmlreval::bench {

struct SchemaPair {
  std::shared_ptr<automata::Alphabet> alphabet;
  std::unique_ptr<schema::Schema> source;
  std::unique_ptr<schema::Schema> target;
  std::unique_ptr<core::TypeRelations> relations;
};

inline SchemaPair LoadPair(const char* source_xsd, const char* target_xsd) {
  SchemaPair pair;
  pair.alphabet = std::make_shared<automata::Alphabet>();
  auto source = schema::ParseXsd(source_xsd, pair.alphabet);
  if (!source.ok()) {
    std::fprintf(stderr, "source schema: %s\n",
                 source.status().ToString().c_str());
    std::abort();
  }
  pair.source = std::make_unique<schema::Schema>(std::move(source).value());
  auto target = schema::ParseXsd(target_xsd, pair.alphabet);
  if (!target.ok()) {
    std::fprintf(stderr, "target schema: %s\n",
                 target.status().ToString().c_str());
    std::abort();
  }
  pair.target = std::make_unique<schema::Schema>(std::move(target).value());
  auto relations =
      core::TypeRelations::Compute(pair.source.get(), pair.target.get());
  if (!relations.ok()) {
    std::fprintf(stderr, "relations: %s\n",
                 relations.status().ToString().c_str());
    std::abort();
  }
  pair.relations =
      std::make_unique<core::TypeRelations>(std::move(relations).value());
  return pair;
}

/// Experiment 1 pair: Figure 1a (billTo optional) → Figure 2.
inline SchemaPair& Experiment1Pair() {
  static SchemaPair pair =
      LoadPair(workload::kSourceXsd, workload::kTargetXsd);
  return pair;
}

/// Experiment 2 pair: Figure 2 with quantity<200 → Figure 2 (quantity<100).
inline SchemaPair& Experiment2Pair() {
  static SchemaPair pair =
      LoadPair(workload::kRelaxedQuantityXsd, workload::kTargetXsd);
  return pair;
}

/// Single-schema pair (source == target == Figure 2): the update problem.
inline SchemaPair& SingleSchemaPair() {
  static SchemaPair pair = LoadPair(workload::kTargetXsd, workload::kTargetXsd);
  return pair;
}

/// The item-count grid of the paper's Table 2 / Figure 3.
inline constexpr size_t kItemGrid[] = {2, 50, 100, 200, 500, 1000};

/// Wall time of one call of `run`, in nanoseconds.
template <typename F>
double TimeNs(F&& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count();
}

/// The median of `samples`; with an odd count it is a real sample.
inline double Median(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Median wall time of `runs` calls of `run`, after `warmups` untimed
/// calls, in nanoseconds.
template <typename F>
double MedianNs(F&& run, size_t runs = 9, size_t warmups = 3) {
  for (size_t i = 0; i < warmups; ++i) run();
  std::vector<double> samples;
  samples.reserve(runs);
  for (size_t i = 0; i < runs; ++i) samples.push_back(TimeNs(run));
  return Median(std::move(samples));
}

/// Writes a flat JSON object of numeric metrics (tagged with the benchmark
/// name) so CI and scripts can consume results without scraping stdout.
/// Emits {"bench": "<name>", "<key>": <value>, ...} to `path`.
inline void WriteBenchJson(
    const char* path, const char* bench,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\"", bench);
  for (const auto& [key, value] : metrics) {
    std::fprintf(f, ",\n  \"%s\": %.6g", key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace xmlreval::bench

#endif  // XMLREVAL_BENCH_BENCH_UTIL_H_
