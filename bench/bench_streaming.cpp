// Ablation A6 — the streaming cast engine quantified: the paper's memory
// argument (§7: live state depends on the schemas and document DEPTH, not
// document SIZE) and the time of a streamed cast next to the DOM pipeline
// (ParseXml + CastValidator) on the same text.
//
// Two corpora stress the two axes:
//
//   * WIDE — high fanout, heavily subsumed: source r(rec*) → target
//     r(rec+) with identical rec(k,v) declarations, so every rec pair is
//     in R_sub and the session hands ~all of the payload to the raw-byte
//     SkipScanner (never tokenized).
//
//   * DEEP — a 100k-deep single chain under a NON-subsumed pair (the
//     target drops a sibling the source allows, so no subtree can be
//     skipped and every element opens a frame). max_live_frames == depth
//     here: the honest worst case for the streaming memory claim.
//
// Counters (exported to BENCH_streaming.json by XMLREVAL_BENCH_JSON_MAIN):
//   ns_per_node           wall ns per document ELEMENT (same denominator —
//                         the DOM node count — for every pipeline, so
//                         skip-scan runs aren't flattered by visiting less)
//   bytes_skipped_pct     % of input bytes the SkipScanner consumed
//   max_live_frames       peak open-element stack (streaming memory)
//   stream_live_bytes     max_live_frames * ~frame + peak carry buffer
//   dom_peak_bytes        Document::MemoryUsage().total() after parse
//   dom_vs_stream_mem_ratio  dom_peak_bytes / stream_live_bytes

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench/bench_json_main.h"
#include "bench/bench_util.h"
#include "core/cast_validator.h"
#include "core/streaming_validator.h"
#include "schema/dtd_parser.h"
#include "xml/parser.h"

namespace {

using namespace xmlreval;

// An open frame is {Symbol, ordinals, TypeIds, content-run state}; 64 bytes
// is a round upper bound for the struct itself (the parser side is counted
// via peak_carry).
constexpr double kFrameBytes = 64.0;

bench::SchemaPair LoadDtdPair(const char* source_dtd, const char* target_dtd,
                              std::vector<std::string> roots) {
  bench::SchemaPair pair;
  pair.alphabet = std::make_shared<automata::Alphabet>();
  schema::DtdParseOptions options;
  options.roots = std::move(roots);
  auto source = schema::ParseDtd(source_dtd, pair.alphabet, options);
  if (!source.ok()) std::abort();
  pair.source = std::make_unique<schema::Schema>(std::move(source).value());
  auto target = schema::ParseDtd(target_dtd, pair.alphabet, options);
  if (!target.ok()) std::abort();
  pair.target = std::make_unique<schema::Schema>(std::move(target).value());
  auto relations =
      core::TypeRelations::Compute(pair.source.get(), pair.target.get());
  if (!relations.ok()) std::abort();
  pair.relations =
      std::make_unique<core::TypeRelations>(std::move(relations).value());
  return pair;
}

/// Wide corpus: every <rec> pair is subsumed (identical declarations), the
/// root pair is not (rec* vs rec+), so the session validates the root's
/// content model and byte-skips each rec subtree.
bench::SchemaPair& WidePair() {
  static bench::SchemaPair pair = LoadDtdPair(
      "<!ELEMENT r (rec*)>"
      "<!ELEMENT rec (k, v+)>"
      "<!ELEMENT k (#PCDATA)>"
      "<!ELEMENT v (#PCDATA)>",
      "<!ELEMENT r (rec+)>"
      "<!ELEMENT rec (k, v+)>"
      "<!ELEMENT k (#PCDATA)>"
      "<!ELEMENT v (#PCDATA)>",
      {"r"});
  return pair;
}

std::string WideText(size_t recs) {
  std::string text = "<r>";
  text.reserve(recs * 300 + 8);
  for (size_t i = 0; i < recs; ++i) {
    text += "<rec><k>key</k>";
    for (int v = 0; v < 8; ++v) text += "<v>value-of-record-field</v>";
    text += "</rec>";
  }
  text += "</r>";
  return text;
}

/// Deep corpus: the target forbids the <pad> sibling the source allows, so
/// (n, n) is NOT subsumed — every level of the chain opens a live frame.
bench::SchemaPair& DeepPair() {
  static bench::SchemaPair pair = LoadDtdPair(
      "<!ELEMENT n (n?, pad*)>"
      "<!ELEMENT pad EMPTY>",
      "<!ELEMENT n (n?)>"
      "<!ELEMENT pad EMPTY>",
      {"n"});
  return pair;
}

std::string DeepText(size_t depth) {
  std::string text;
  text.reserve(depth * 8);
  for (size_t i = 0; i < depth; ++i) text += "<n>";
  for (size_t i = 0; i < depth; ++i) text += "</n>";
  return text;
}

uint64_t DomNodeCount(const std::string& text) {
  auto doc = xml::ParseXml(text);
  if (!doc.ok()) std::abort();
  return doc.value().NodeCount();
}

core::StreamingReport RunSession(const core::TypeRelations& relations,
                                 const std::string& text) {
  core::StreamingCastSession session(relations);
  Status fed = session.Feed(text);
  (void)fed;
  return session.Finish();
}

double StreamLiveBytes(const core::StreamingReport& report) {
  return static_cast<double>(report.max_live_frames) * kFrameBytes +
         static_cast<double>(report.peak_carry_bytes);
}

void SessionCounters(benchmark::State& state, const std::string& text,
                     const core::StreamingReport& report, uint64_t doc_nodes,
                     double total_ns) {
  state.counters["ns_per_node"] =
      total_ns / (static_cast<double>(state.iterations()) *
                  static_cast<double>(doc_nodes));
  state.counters["bytes_skipped_pct"] =
      100.0 * static_cast<double>(report.bytes_skipped) /
      static_cast<double>(text.size());
  state.counters["max_live_frames"] =
      static_cast<double>(report.max_live_frames);
  state.counters["stream_live_bytes"] = StreamLiveBytes(report);
}

void BM_WideSkipScan(benchmark::State& state) {
  bench::SchemaPair& pair = WidePair();
  std::string text = WideText(state.range(0));
  uint64_t doc_nodes = DomNodeCount(text);
  core::StreamingReport report;
  double total_ns = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    report = RunSession(*pair.relations, text);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    benchmark::DoNotOptimize(report.valid);
  }
  if (!report.valid) std::abort();
  SessionCounters(state, text, report, doc_nodes, total_ns);
}

void BM_WideDom(benchmark::State& state) {
  bench::SchemaPair& pair = WidePair();
  core::CastValidator validator(pair.relations.get());
  std::string text = WideText(state.range(0));
  uint64_t doc_nodes = DomNodeCount(text);
  core::StreamingReport stream = RunSession(*pair.relations, text);
  double dom_bytes = 0;
  double total_ns = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto doc = xml::ParseXml(text);
    core::ValidationReport report = validator.Validate(doc.value());
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    benchmark::DoNotOptimize(report.valid);
    dom_bytes = static_cast<double>(doc.value().MemoryUsage().total());
  }
  state.counters["ns_per_node"] =
      total_ns / (static_cast<double>(state.iterations()) *
                  static_cast<double>(doc_nodes));
  state.counters["dom_peak_bytes"] = dom_bytes;
  state.counters["dom_vs_stream_mem_ratio"] =
      dom_bytes / StreamLiveBytes(stream);
}

void BM_DeepStreaming(benchmark::State& state) {
  bench::SchemaPair& pair = DeepPair();
  std::string text = DeepText(state.range(0));
  uint64_t doc_nodes = DomNodeCount(text);
  core::StreamingReport report;
  double total_ns = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    report = RunSession(*pair.relations, text);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    benchmark::DoNotOptimize(report.valid);
  }
  if (!report.valid) std::abort();
  if (report.max_live_frames != static_cast<uint64_t>(state.range(0))) {
    std::abort();  // the deep pair must not be subsumed
  }
  SessionCounters(state, text, report, doc_nodes, total_ns);
}

void BM_DeepDom(benchmark::State& state) {
  bench::SchemaPair& pair = DeepPair();
  core::CastValidator validator(pair.relations.get());
  std::string text = DeepText(state.range(0));
  uint64_t doc_nodes = DomNodeCount(text);
  core::StreamingReport stream = RunSession(*pair.relations, text);
  double dom_bytes = 0;
  double total_ns = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto doc = xml::ParseXml(text);
    core::ValidationReport report = validator.Validate(doc.value());
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    benchmark::DoNotOptimize(report.valid);
    dom_bytes = static_cast<double>(doc.value().MemoryUsage().total());
  }
  state.counters["ns_per_node"] =
      total_ns / (static_cast<double>(state.iterations()) *
                  static_cast<double>(doc_nodes));
  state.counters["dom_peak_bytes"] = dom_bytes;
  state.counters["dom_vs_stream_mem_ratio"] =
      dom_bytes / StreamLiveBytes(stream);
}

#define WIDE_GRID ->Arg(1000)->Arg(20000)
#define DEEP_GRID ->Arg(1000)->Arg(100000)
BENCHMARK(BM_WideSkipScan) WIDE_GRID;
BENCHMARK(BM_WideDom) WIDE_GRID;
BENCHMARK(BM_DeepStreaming) DEEP_GRID;
BENCHMARK(BM_DeepDom) DEEP_GRID;

}  // namespace

XMLREVAL_BENCH_JSON_MAIN("streaming")
