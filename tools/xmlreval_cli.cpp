// xmlreval — command-line front end.
//
//   xmlreval validate    <schema> <doc.xml>            full validation
//   xmlreval cast        <source> <target> <doc.xml>   schema cast validation
//                        [--stream [--chunk-bytes N]]  ("-" = stdin) streams
//                        through the incremental engine: O(depth) memory,
//                        subsumed subtrees byte-skipped, no DOM
//   xmlreval correct     <source> <target> <doc.xml> [-o out.xml]
//   xmlreval sample      <schema> [--root LABEL] [--seed N] [--max-elems N]
//   xmlreval relations   <source> <target>             dump R_sub / R_dis
//   xmlreval compile     <source> <target> --plan-cache-dir DIR
//                                                      precompile a cast plan
//   xmlreval serve-batch <source> <target> <doc.xml...> [--threads N]
//                        [--repeat N] [--metrics-out F] [--metrics-interval S]
//                        [--trace-out F] [--tail-sample]
//                        [--flight-recorder F] [--plan-cache-dir DIR]
//                                                      batch pipeline
//   xmlreval stats       <metrics.json>                 pretty-print a dump
//   xmlreval trace-report <trace.json>                  latency decomposition
//
// Schemas are loaded by extension: *.dtd through the DTD front end,
// anything else through the XSD front end. Exit status: 0 = valid /
// success, 1 = invalid document, 2 = usage or input error. Unknown
// subcommands print the usage message and exit 2.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/macros.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/cast_validator.h"
#include "core/corrector.h"
#include "core/full_validator.h"
#include "core/relations.h"
#include "core/streaming_validator.h"
#include "schema/dtd_parser.h"
#include "schema/xsd_parser.h"
#include "schema/xsd_writer.h"
#include "service/validation_service.h"
#include "workload/random_docs.h"
#include "workload/update_workload.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace xmlreval;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xmlreval validate  <schema> <doc.xml>\n"
               "  xmlreval cast      <source> <target> <doc.xml|->"
               " [--stream [--chunk-bytes N]]\n"
               "  xmlreval correct   <source> <target> <doc.xml> [-o out]\n"
               "  xmlreval sample    <schema> [--root L] [--seed N]"
               " [--max-elems N]\n"
               "  xmlreval relations <source> <target>\n"
               "  xmlreval export    <schema>\n"
               "  xmlreval compile   <source> <target> --plan-cache-dir DIR"
               " [--reverse]\n"
               "  xmlreval serve-batch <source> <target> <doc.xml...>"
               " [--threads N] [--repeat N]\n"
               "                       [--intra-doc-threads N]"
               " [--metrics-out F]\n"
               "                       [--metrics-interval S]"
               " [--trace-out F]\n"
               "                       [--tail-sample]"
               " [--flight-recorder F]\n"
               "                       [--plan-cache-dir DIR]"
               " [--stream-threshold-bytes N]\n"
               "  xmlreval stats <metrics.json>\n"
               "  xmlreval trace-report <trace.json>\n"
               "  xmlreval analyze-updates <source> <target> <doc.xml>"
               " [--edits N] [--seed N]\n"
               "                       [--safe-percent P] [--metrics-out F]\n"
               "\nschemas ending in .dtd use the DTD front end; everything\n"
               "else is parsed as XML Schema.\n"
               "cast --stream feeds the document (file, or stdin for \"-\")\n"
               "through the incremental push-parser engine in --chunk-bytes\n"
               "pieces (default 1 MiB): memory stays O(depth) regardless of\n"
               "document size and subsumed subtrees are byte-skipped. The\n"
               "DOM source-validity precheck is skipped in this mode.\n"
               "serve-batch fans the documents out over a validation\n"
               "thread pool (--threads, default: hardware concurrency) and\n"
               "casts each from <source> to <target>; --repeat N queues\n"
               "every document N times (throughput runs).\n"
               "--intra-doc-threads N additionally fans EACH large\n"
               "document's cast out over N workers (work-stealing subtree\n"
               "parallelism; 0 = off, the default).\n"
               "--stream-threshold-bytes N routes cast items of at least N\n"
               "bytes through the streaming engine — no DOM on the worker\n"
               "(0 = off, the default).\n"
               "--metrics-out dumps the service metrics snapshot on exit\n"
               "(*.json = JSON, anything else = Prometheus text); SIGUSR1\n"
               "or --metrics-interval S rewrite it while serving. \n"
               "--trace-out enables span tracing and writes Chrome\n"
               "trace-event JSON (open in Perfetto / chrome://tracing).\n"
               "--tail-sample keeps only slow/failed requests' traces\n"
               "(tail-latency exemplars in the metrics dump link to them);\n"
               "--flight-recorder F arms the crash-safe flight recorder:\n"
               "recent spans + counters are dumped to F from fatal signals\n"
               "(SIGSEGV/SIGABRT) and on demand via SIGUSR2.\n"
               "compile precompiles the (source, target) cast — schemas,\n"
               "relations fixpoints, analyzer tables — into a plan artifact\n"
               "under --plan-cache-dir, so later serve-batch runs with the\n"
               "same flag warm-start by mmap instead of recompiling\n"
               "(--reverse also builds the §4.3 reverse automata).\n"
               "stats pretty-prints a JSON metrics dump.\n"
               "trace-report decomposes a --trace-out file per request:\n"
               "queue wait / parse / bind / fixpoint / analyze / traverse.\n"
               "analyze-updates generates --edits random edits (--seed) on\n"
               "<doc.xml> and submits them as one edit stream: the static\n"
               "update-safety analyzer accepts/rejects schema-decidable\n"
               "streams with zero tree work and falls back to incremental\n"
               "revalidation otherwise. --safe-percent P draws 100-P%% of\n"
               "the edit labels from outside the schema (analyzer-opaque).\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasSuffix(const std::string& path, const char* suffix) {
  size_t n = std::strlen(suffix);
  return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
}

Result<schema::Schema> LoadSchema(
    const std::string& path,
    const std::shared_ptr<automata::Alphabet>& alphabet) {
  ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  if (HasSuffix(path, ".dtd")) {
    return schema::ParseDtd(text, alphabet);
  }
  return schema::ParseXsd(text, alphabet);
}

Result<xml::Document> LoadDocument(const std::string& path) {
  ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return xml::ParseXml(text);
}

void PrintReport(const char* what, const core::ValidationReport& report) {
  if (report.valid) {
    std::printf("%s: VALID  (visited %llu nodes, skipped %llu subtrees, "
                "%llu DFA steps)\n",
                what, (unsigned long long)report.counters.nodes_visited,
                (unsigned long long)report.counters.subtrees_skipped,
                (unsigned long long)report.counters.dfa_steps);
  } else {
    std::printf("%s: INVALID at %s — %s\n", what,
                report.violation_path.ToString().c_str(),
                report.violation.c_str());
  }
}

int CmdValidate(int argc, char** argv) {
  if (argc != 2) return Usage();
  auto alphabet = std::make_shared<automata::Alphabet>();
  auto schema = LoadSchema(argv[0], alphabet);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 2;
  }
  auto doc = LoadDocument(argv[1]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 2;
  }
  core::FullValidator validator(&*schema);
  core::ValidationReport report = validator.Validate(*doc);
  PrintReport("validate", report);
  return report.valid ? 0 : 1;
}

struct LoadedPair {
  std::shared_ptr<automata::Alphabet> alphabet;
  std::unique_ptr<schema::Schema> source;
  std::unique_ptr<schema::Schema> target;
  std::unique_ptr<core::TypeRelations> relations;
};

Result<LoadedPair> LoadPair(const std::string& source_path,
                            const std::string& target_path) {
  LoadedPair pair;
  pair.alphabet = std::make_shared<automata::Alphabet>();
  ASSIGN_OR_RETURN(schema::Schema source,
                   LoadSchema(source_path, pair.alphabet));
  pair.source = std::make_unique<schema::Schema>(std::move(source));
  ASSIGN_OR_RETURN(schema::Schema target,
                   LoadSchema(target_path, pair.alphabet));
  pair.target = std::make_unique<schema::Schema>(std::move(target));
  ASSIGN_OR_RETURN(core::TypeRelations relations,
                   core::TypeRelations::Compute(pair.source.get(),
                                                pair.target.get()));
  pair.relations =
      std::make_unique<core::TypeRelations>(std::move(relations));
  return pair;
}

// cast --stream: feed the document (file or stdin) through the incremental
// engine chunk by chunk. Never builds a DOM, so a document far larger than
// RAM validates in O(depth) memory; the greppable "stream:" line reports
// the byte accounting (reconciled against ground truth by CI's
// streaming-smoke job).
int RunStreamingCast(const core::TypeRelations& relations,
                     const std::string& doc_path, size_t chunk_bytes) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (doc_path != "-") {
    file.open(doc_path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s'\n", doc_path.c_str());
      return 2;
    }
    in = &file;
  }
  core::StreamingCastSession session(relations);
  std::vector<char> buffer(std::max<size_t>(chunk_bytes, 1));
  while (in->read(buffer.data(), static_cast<std::streamsize>(buffer.size())),
         in->gcount() > 0) {
    Status fed = session.Feed(
        std::string_view(buffer.data(), static_cast<size_t>(in->gcount())));
    if (!fed.ok()) break;  // verdict decided; stop reading
  }
  const core::StreamingReport& report = session.Finish();
  // Three-way exit mirroring the DOM cast path: a malformed or truncated
  // stream is an input error (2), not an "invalid" verdict (1). status()
  // separates the two: kInvalidArgument carries a cast rejection, any
  // other failure is a real error.
  const Status& decided = session.status();
  if (!decided.ok() && decided.code() != StatusCode::kInvalidArgument) {
    std::fprintf(stderr, "error: %s\n", decided.ToString().c_str());
    std::printf("stream: bytes_fed=%llu bytes_skipped=%llu "
                "max_live_frames=%llu peak_carry_bytes=%llu\n",
                (unsigned long long)report.bytes_fed,
                (unsigned long long)report.bytes_skipped,
                (unsigned long long)report.max_live_frames,
                (unsigned long long)report.peak_carry_bytes);
    return 2;
  }
  if (report.valid) {
    std::printf("cast: VALID  (visited %llu nodes, skipped %llu subtrees, "
                "%llu DFA steps)\n",
                (unsigned long long)report.counters.nodes_visited,
                (unsigned long long)report.counters.subtrees_skipped,
                (unsigned long long)report.counters.dfa_steps);
  } else {
    std::string where =
        report.violation_path_known
            ? xml::DeweyPath(report.violation_path).ToString()
            : std::string("?");
    std::printf("cast: INVALID at %s — %s\n", where.c_str(),
                report.violation.c_str());
  }
  std::printf("stream: bytes_fed=%llu bytes_skipped=%llu "
              "max_live_frames=%llu peak_carry_bytes=%llu\n",
              (unsigned long long)report.bytes_fed,
              (unsigned long long)report.bytes_skipped,
              (unsigned long long)report.max_live_frames,
              (unsigned long long)report.peak_carry_bytes);
  return report.valid ? 0 : 1;
}

int CmdCast(int argc, char** argv) {
  bool stream = false;
  size_t chunk_bytes = size_t{1} << 20;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(argv[i], "--chunk-bytes") == 0 && i + 1 < argc) {
      chunk_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (argv[i][0] == '-' && std::strcmp(argv[i], "-") != 0) {
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 3) return Usage();
  auto pair = LoadPair(positional[0], positional[1]);
  if (!pair.ok()) {
    std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
    return 2;
  }
  if (stream) {
    return RunStreamingCast(*pair->relations, positional[2], chunk_bytes);
  }
  auto doc = LoadDocument(positional[2]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 2;
  }
  // Establish the precondition before casting.
  core::ValidationReport source_report =
      core::FullValidator(pair->source.get()).Validate(*doc);
  if (!source_report.valid) {
    std::fprintf(stderr,
                 "input is not valid under the SOURCE schema (%s); the "
                 "cast precondition does not hold\n",
                 source_report.violation.c_str());
    return 2;
  }
  core::CastValidator validator(pair->relations.get());
  core::ValidationReport report = validator.Validate(*doc);
  PrintReport("cast", report);
  return report.valid ? 0 : 1;
}

int CmdCorrect(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string out_path;
  if (argc == 5 && std::strcmp(argv[3], "-o") == 0) {
    out_path = argv[4];
  } else if (argc != 3) {
    return Usage();
  }
  auto pair = LoadPair(argv[0], argv[1]);
  if (!pair.ok()) {
    std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
    return 2;
  }
  auto doc = LoadDocument(argv[2]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 2;
  }
  core::ValidationReport source_report =
      core::FullValidator(pair->source.get()).Validate(*doc);
  if (!source_report.valid) {
    std::fprintf(stderr, "input is not valid under the source schema (%s)\n",
                 source_report.violation.c_str());
    return 2;
  }
  core::DocumentCorrector corrector(pair->relations.get());
  auto report = corrector.Correct(&*doc);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  for (const core::CorrectionStep& step : report->steps) {
    const char* kind = "?";
    switch (step.kind) {
      case core::CorrectionStep::Kind::kRewriteText:
        kind = "rewrite";
        break;
      case core::CorrectionStep::Kind::kInsertElement:
        kind = "insert";
        break;
      case core::CorrectionStep::Kind::kDeleteSubtree:
        kind = "delete";
        break;
      case core::CorrectionStep::Kind::kSetAttribute:
        kind = "set-attr";
        break;
      case core::CorrectionStep::Kind::kRemoveAttribute:
        kind = "del-attr";
        break;
    }
    std::printf("  %-8s at %-10s %s\n", kind, step.where.c_str(),
                step.detail.c_str());
  }
  std::printf("%zu repair(s) applied\n", report->steps.size());
  std::string text = xml::Serialize(*doc);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << text;
  }
  return 0;
}

int CmdSample(int argc, char** argv) {
  if (argc < 1) return Usage();
  workload::RandomDocOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      options.root_label = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-elems") == 0 && i + 1 < argc) {
      options.max_elements = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  auto alphabet = std::make_shared<automata::Alphabet>();
  auto schema = LoadSchema(argv[0], alphabet);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 2;
  }
  auto doc = workload::SampleDocument(*schema, options);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 2;
  }
  std::fputs(xml::Serialize(*doc).c_str(), stdout);
  return 0;
}

// Renders any supported schema (DTD included) as XSD text.
int CmdExport(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto alphabet = std::make_shared<automata::Alphabet>();
  auto schema = LoadSchema(argv[0], alphabet);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 2;
  }
  auto text = schema::WriteXsd(*schema);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 2;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

int CmdRelations(int argc, char** argv) {
  if (argc != 2) return Usage();
  auto pair = LoadPair(argv[0], argv[1]);
  if (!pair.ok()) {
    std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
    return 2;
  }
  const schema::Schema& source = *pair->source;
  const schema::Schema& target = *pair->target;
  std::printf("%zu source types x %zu target types\n", source.num_types(),
              target.num_types());
  for (schema::TypeId s = 0; s < source.num_types(); ++s) {
    for (schema::TypeId t = 0; t < target.num_types(); ++t) {
      bool subsumed = pair->relations->Subsumed(s, t);
      bool disjoint = pair->relations->Disjoint(s, t);
      if (!subsumed && !disjoint) continue;  // print only decisive pairs
      std::printf("  %-24s %s %-24s\n", source.TypeName(s).c_str(),
                  subsumed ? "<=" : "><", target.TypeName(t).c_str());
    }
  }
  std::printf("(\"<=\" subsumed, \"><\" disjoint; unlisted pairs need "
              "traversal)\n");
  return 0;
}

// Reads both schema texts into a RegisterPlanPair spec (format sniffed
// from the extension, keys = the paths).
Result<service::ValidationService::PlanPairSpec> LoadPairSpec(
    const std::string& source_path, const std::string& target_path) {
  service::ValidationService::PlanPairSpec spec;
  spec.source_key = source_path;
  spec.source_format = HasSuffix(source_path, ".dtd")
                           ? service::SchemaFormat::kDtd
                           : service::SchemaFormat::kXsd;
  ASSIGN_OR_RETURN(spec.source_text, ReadFile(source_path));
  spec.target_key = target_path;
  spec.target_format = HasSuffix(target_path, ".dtd")
                           ? service::SchemaFormat::kDtd
                           : service::SchemaFormat::kXsd;
  ASSIGN_OR_RETURN(spec.target_text, ReadFile(target_path));
  return spec;
}

// Precompiles one (source, target) cast plan into the plan cache, so
// serving processes pointed at the same directory warm-start. Idempotent:
// a second run finds the artifact and reports "warm".
int CmdCompile(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string dir;
  bool reverse = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plan-cache-dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--reverse") == 0) {
      reverse = true;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() != 2 || dir.empty()) return Usage();

  service::ValidationService::Options options;
  options.plan_cache_dir = dir;
  options.cache.relations.build_reverse_automata = reverse;
  service::ValidationService service(options);

  auto spec = LoadPairSpec(positional[0], positional[1]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto handles = service.RegisterPlanPair(*spec);
  auto t1 = std::chrono::steady_clock::now();
  if (!handles.ok()) {
    std::fprintf(stderr, "%s\n", handles.status().ToString().c_str());
    return 2;
  }
  double millis =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  service::PlanKey key;
  key.source_format = spec->source_format;
  key.source_text = spec->source_text;
  key.target_format = spec->target_format;
  key.target_text = spec->target_text;
  key.reverse_automata = reverse;
  const std::string path = service.plan_cache()->PlanPath(key);
  service::PlanCache::Stats stats = service.plan_cache()->GetStats();
  std::printf("%s: %s in %.1f ms\n", path.c_str(),
              handles->warm ? "already compiled (warm load verified)"
                            : "compiled and published",
              millis);
  std::printf("plan cache: %llu hit(s), %llu miss(es), %llu corrupt, "
              "%llu save(s)\n",
              (unsigned long long)stats.hits,
              (unsigned long long)stats.misses,
              (unsigned long long)stats.corrupt,
              (unsigned long long)stats.saves);
  return 0;
}

// SIGUSR1 → rewrite the --metrics-out file at the next flusher tick.
// (An atomic flag is all a signal handler may touch; the flusher thread
// does the actual snapshot + file IO.)
std::atomic<bool> g_metrics_flush_requested{false};

extern "C" void OnMetricsFlushSignal(int) {
  g_metrics_flush_requested.store(true, std::memory_order_relaxed);
}

// Dumps the service's metrics snapshot to `path`; *.json gets the JSON
// rendering (the `stats` subcommand's input), anything else Prometheus
// text exposition. Written atomically enough for a scraper: truncate +
// full rewrite.
bool WriteSnapshotFile(const obs::MetricsSnapshot& snapshot,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  out << (HasSuffix(path, ".json") ? snapshot.ToJson()
                                   : snapshot.ToPrometheusText());
  return true;
}

bool WriteMetricsFile(const service::ValidationService& service,
                      const std::string& path) {
  return WriteSnapshotFile(service.metrics().Snapshot(), path);
}

// Batch serving through the src/service/ layer: register both schemas
// once, fan the documents out over the ValidationService thread pool, and
// report per-document verdicts plus the service's cache statistics.
int CmdServeBatch(int argc, char** argv) {
  std::vector<std::string> positional;
  size_t threads = 0;
  size_t intra_doc_threads = 0;
  size_t repeat = 1;
  size_t metrics_interval = 0;  // seconds; 0 = only on signal/exit
  std::string metrics_out;
  std::string trace_out;
  std::string flight_out;
  std::string plan_cache_dir;
  bool tail_sample = false;
  size_t stream_threshold_bytes = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--stream-threshold-bytes") == 0 &&
               i + 1 < argc) {
      stream_threshold_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--intra-doc-threads") == 0 &&
               i + 1 < argc) {
      intra_doc_threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-interval") == 0 &&
               i + 1 < argc) {
      metrics_interval = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--tail-sample") == 0) {
      tail_sample = true;
    } else if (std::strcmp(argv[i], "--flight-recorder") == 0 &&
               i + 1 < argc) {
      flight_out = argv[++i];
    } else if (std::strcmp(argv[i], "--plan-cache-dir") == 0 && i + 1 < argc) {
      plan_cache_dir = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() < 3 || repeat == 0) return Usage();
  if (!trace_out.empty() || tail_sample) obs::SetTraceEnabled(true);
  if (tail_sample) obs::TraceSink::Global().SetTailSampling(true);
  if (!flight_out.empty()) {
    obs::FlightRecorder::Global().Enable();
    obs::InstallCrashHandlers(flight_out.c_str());
  }

  service::ValidationService::Options options;
  options.batch_threads = threads;
  options.intra_doc_threads = intra_doc_threads;
  options.plan_cache_dir = plan_cache_dir;
  options.stream_threshold_bytes = stream_threshold_bytes;
  service::ValidationService service(options);
  if (!flight_out.empty()) {
    // The crash dump carries the service's headline counters so a
    // post-mortem shows how far the batch got. The registry hands back
    // stable pointers; the recorder reads them with plain loads (atomic
    // underneath, so async-signal-safe).
    auto& recorder = obs::FlightRecorder::Global();
    obs::MetricsRegistry& metrics = service.metrics();
    recorder.RegisterCounter("xmlreval_requests_total",
                             metrics.counter("xmlreval_requests_total"));
    recorder.RegisterCounter(
        "xmlreval_verdicts_total{verdict=valid}",
        metrics.counter("xmlreval_verdicts_total", {{"verdict", "valid"}}));
    recorder.RegisterCounter(
        "xmlreval_verdicts_total{verdict=invalid}",
        metrics.counter("xmlreval_verdicts_total", {{"verdict", "invalid"}}));
    recorder.RegisterCounter(
        "xmlreval_verdicts_total{verdict=error}",
        metrics.counter("xmlreval_verdicts_total", {{"verdict", "error"}}));
    recorder.RegisterCounter("xmlreval_nodes_visited_total",
                             metrics.counter("xmlreval_nodes_visited_total"));
  }

  // Periodic / signal-driven metrics exposition while the batch runs.
  std::atomic<bool> flusher_done{false};
  std::thread flusher;
  if (!metrics_out.empty()) {
    std::signal(SIGUSR1, OnMetricsFlushSignal);
    flusher = std::thread([&] {
      auto last = std::chrono::steady_clock::now();
      while (!flusher_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        auto now = std::chrono::steady_clock::now();
        bool due = metrics_interval > 0 &&
                   now - last >= std::chrono::seconds(metrics_interval);
        if (g_metrics_flush_requested.exchange(false,
                                               std::memory_order_relaxed) ||
            due) {
          WriteMetricsFile(service, metrics_out);
          last = now;
        }
      }
    });
  }

  service::SchemaHandle handles[2];
  if (!plan_cache_dir.empty()) {
    // Warm-start path: one RegisterPlanPair loads schemas + relations +
    // analyzer from the mmap'd plan artifact (compiling and publishing it
    // on a cold miss).
    auto spec = LoadPairSpec(positional[0], positional[1]);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    auto pair = service.RegisterPlanPair(*spec);
    if (!pair.ok()) {
      std::fprintf(stderr, "%s\n", pair.status().ToString().c_str());
      return 2;
    }
    handles[0] = pair->source;
    handles[1] = pair->target;
    std::fprintf(stderr, "plan cache: %s\n",
                 pair->warm ? "warm start (artifact mapped)"
                            : "cold start (compiled and published)");
  } else {
    for (int i = 0; i < 2; ++i) {
      auto text = ReadFile(positional[i]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 2;
      }
      auto handle =
          HasSuffix(positional[i], ".dtd")
              ? service.registry().RegisterDtd(positional[i], *text)
              : service.registry().RegisterXsd(positional[i], *text);
      if (!handle.ok()) {
        std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
        return 2;
      }
      handles[i] = *handle;
    }
  }

  std::vector<service::ValidationService::BatchItem> items;
  size_t doc_count = positional.size() - 2;
  for (size_t r = 0; r < repeat; ++r) {
    for (size_t d = 2; d < positional.size(); ++d) {
      auto text = ReadFile(positional[d]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 2;
      }
      service::ValidationService::BatchItem item;
      item.op = service::ValidationService::BatchOp::kCast;
      item.source = handles[0];
      item.target = handles[1];
      item.xml_text = std::move(*text);
      items.push_back(std::move(item));
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<service::ValidationService::BatchItemResult> results =
      service.SubmitBatch(std::move(items)).get();
  auto t1 = std::chrono::steady_clock::now();

  // Per-document verdicts (first round only; repeats are identical work).
  int exit_code = 0;
  for (size_t d = 0; d < doc_count; ++d) {
    const auto& result = results[d];
    if (!result.status.ok()) {
      std::printf("%s: ERROR — %s\n", positional[2 + d].c_str(),
                  result.status.ToString().c_str());
      exit_code = 2;
    } else if (result.report.valid) {
      std::printf("%s: VALID\n", positional[2 + d].c_str());
    } else {
      std::printf("%s: INVALID at %s — %s\n", positional[2 + d].c_str(),
                  result.report.violation_path.ToString().c_str(),
                  result.report.violation.c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }

  double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  service::RelationsCache::Stats cache = service.cache().stats();
  service::ValidationService::Counters counters = service.counters();
  std::printf(
      "\n%llu documents in %.3f ms (%.0f docs/s) — %llu valid, "
      "%llu invalid, %llu errors\n"
      "relations cache: %llu hits, %llu misses, %llu fixpoint(s) computed "
      "in %llu us\n",
      (unsigned long long)counters.batch_items, seconds * 1e3,
      seconds > 0 ? counters.batch_items / seconds : 0.0,
      (unsigned long long)counters.valid,
      (unsigned long long)counters.invalid,
      (unsigned long long)counters.errors, (unsigned long long)cache.hits,
      (unsigned long long)cache.misses,
      (unsigned long long)cache.computations,
      (unsigned long long)cache.compute_micros);
  if (flusher.joinable()) {
    flusher_done.store(true, std::memory_order_relaxed);
    flusher.join();
  }
  // One snapshot serves both the stats print and the final metrics file:
  // snapshots consume the queue-depth high-water gauges (re-armed to live
  // depth), so a separate peek here would zero them in the dump.
  obs::MetricsSnapshot snapshot = service.metrics().Snapshot();
  const obs::HistogramSnapshot* wait =
      snapshot.FindHistogram("xmlreval_batch_queue_wait_us");
  const obs::HistogramSnapshot* svc =
      snapshot.FindHistogram("xmlreval_batch_service_us");
  if (wait != nullptr && svc != nullptr && wait->count > 0) {
    std::printf(
        "batch latency (us): queue wait p50/p99 = %.0f/%.0f, "
        "service p50/p99 = %.0f/%.0f\n",
        wait->Quantile(0.50), wait->Quantile(0.99), svc->Quantile(0.50),
        svc->Quantile(0.99));
  }
  if (!metrics_out.empty() && !WriteSnapshotFile(snapshot, metrics_out)) {
    exit_code = 2;
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_out.c_str());
      exit_code = 2;
    } else {
      out << obs::TraceSink::Global().ExportChromeJson();
    }
  }
  return exit_code;
}

// Static update-safety analysis over a generated edit stream. The script
// is generated against a scratch parse of the document with the plain
// editor, then replayed through ValidationService::SubmitEditStream on a
// fresh parse — node ids are deterministic per parse, so the recorded
// script resolves identically.
int CmdAnalyzeUpdates(int argc, char** argv) {
  std::vector<std::string> positional;
  workload::UpdateWorkloadOptions workload_options;
  workload_options.edit_count = 16;
  int safe_percent = 100;
  std::string metrics_out;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--edits") == 0 && i + 1 < argc) {
      workload_options.edit_count = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      workload_options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--safe-percent") == 0 && i + 1 < argc) {
      safe_percent = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() != 3 || safe_percent < 0 || safe_percent > 100) {
    return Usage();
  }

  service::ValidationService service;
  service::SchemaHandle handles[2];
  for (int i = 0; i < 2; ++i) {
    auto text = ReadFile(positional[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 2;
    }
    auto handle = HasSuffix(positional[i], ".dtd")
                      ? service.registry().RegisterDtd(positional[i], *text)
                      : service.registry().RegisterXsd(positional[i], *text);
    if (!handle.ok()) {
      std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
      return 2;
    }
    handles[i] = *handle;
  }
  auto doc_text = ReadFile(positional[2]);
  if (!doc_text.ok()) {
    std::fprintf(stderr, "%s\n", doc_text.status().ToString().c_str());
    return 2;
  }

  // Generate the script against a scratch parse. With --safe-percent < 100
  // the complementary fraction of rename/insert labels comes from outside
  // the registered schemas, which the analyzer cannot decide statically.
  auto scratch = xml::ParseXml(*doc_text);
  if (!scratch.ok()) {
    std::fprintf(stderr, "%s\n", scratch.status().ToString().c_str());
    return 2;
  }
  if (safe_percent < 100) {
    std::vector<std::string> doc_labels;
    {
      std::unordered_set<std::string> seen;
      std::vector<xml::NodeId> stack{scratch->root()};
      while (!stack.empty()) {
        xml::NodeId node = stack.back();
        stack.pop_back();
        if (scratch->IsElement(node)) {
          std::string label(scratch->label(node));
          if (seen.insert(label).second) {
            doc_labels.push_back(std::move(label));
          }
          for (xml::NodeId c = scratch->first_child(node);
               c != xml::kInvalidNode; c = scratch->next_sibling(c)) {
            stack.push_back(c);
          }
        }
      }
    }
    workload_options.safe_percent = safe_percent;
    workload_options.rename_safe_labels = doc_labels;
    workload_options.insert_safe_labels = doc_labels;
    workload_options.rename_unsafe_labels = {"__wild1", "__wild2"};
    workload_options.insert_unsafe_labels = {"__wild1", "__wild2"};
  }
  std::vector<xml::EditOp> script;
  xml::DocumentEditor scratch_editor(&*scratch);
  auto generated = workload::ApplyRandomUpdates(&*scratch, &scratch_editor,
                                                workload_options, &script);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 2;
  }

  // Replay through the service on a fresh parse.
  auto doc = xml::ParseXml(*doc_text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 2;
  }
  Status bind = service.BindDocument(&*doc);
  if (!bind.ok()) {
    std::fprintf(stderr, "%s\n", bind.ToString().c_str());
    return 2;
  }
  auto result =
      service.SubmitEditStream(handles[0], handles[1], &*doc, script);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }

  const analysis::StreamVerdict& stream = result->stream;
  std::printf(
      "%zu edit(s): %zu safe, %zu fatal, %zu unknown "
      "(%zu decided-but-entangled)\n",
      script.size(), stream.safe_ops, stream.fatal_ops, stream.unknown_ops,
      stream.downgraded_ops);
  if (result->short_circuited) {
    std::printf("stream verdict: %s — short-circuited, zero tree work (%s)\n",
                analysis::SafetyName(stream.verdict), stream.reason);
  } else {
    std::printf("stream verdict: unknown — fell back to incremental "
                "revalidation (%s)\n",
                stream.reason);
  }
  PrintReport("analyze-updates", result->report);
  if (!metrics_out.empty() && !WriteMetricsFile(service, metrics_out)) {
    return 2;
  }
  return result->report.valid ? 0 : 1;
}

// Pretty-prints a JSON metrics dump produced by --metrics-out. Reads the
// same format the service writes; useful for eyeballing a dump without
// Prometheus tooling.
int CmdStats(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto text = ReadFile(argv[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 2;
  }
  auto parsed = json::Parse(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 parsed.status().ToString().c_str());
    return 2;
  }
  auto label_suffix = [](const json::Value& entry) {
    std::string out;
    const json::Value* labels = entry.Find("labels");
    if (labels == nullptr || !labels->is_object()) return out;
    for (const auto& [k, v] : labels->AsObject()) {
      out += out.empty() ? '{' : ',';
      out += k + "=" + (v.is_string() ? v.AsString() : std::string("?"));
    }
    if (!out.empty()) out += '}';
    return out;
  };
  auto number = [](const json::Value& entry, const char* key) {
    const json::Value* v = entry.Find(key);
    return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
  };

  const json::Value* counters = parsed->Find("counters");
  if (counters != nullptr && counters->is_array() &&
      !counters->AsArray().empty()) {
    std::printf("counters:\n");
    for (const json::Value& c : counters->AsArray()) {
      const json::Value* name = c.Find("name");
      if (name == nullptr || !name->is_string()) continue;
      std::printf("  %-58s %12.0f\n",
                  (name->AsString() + label_suffix(c)).c_str(),
                  number(c, "value"));
    }
  }
  const json::Value* gauges = parsed->Find("gauges");
  if (gauges != nullptr && gauges->is_array() && !gauges->AsArray().empty()) {
    std::printf("gauges:\n");
    for (const json::Value& g : gauges->AsArray()) {
      const json::Value* name = g.Find("name");
      if (name == nullptr || !name->is_string()) continue;
      std::printf("  %-58s %12.0f\n",
                  (name->AsString() + label_suffix(g)).c_str(),
                  number(g, "value"));
    }
  }
  const json::Value* histograms = parsed->Find("histograms");
  if (histograms != nullptr && histograms->is_array() &&
      !histograms->AsArray().empty()) {
    std::printf("histograms:%44s%10s%10s%10s%10s%10s\n", "count", "mean",
                "p50", "p90", "p99", "max");
    for (const json::Value& h : histograms->AsArray()) {
      const json::Value* name = h.Find("name");
      if (name == nullptr || !name->is_string()) continue;
      std::printf("  %-52s%10.0f%10.1f%10.1f%10.1f%10.1f%10.0f\n",
                  (name->AsString() + label_suffix(h)).c_str(),
                  number(h, "count"), number(h, "mean"), number(h, "p50"),
                  number(h, "p90"), number(h, "p99"), number(h, "max"));
    }
  }
  return 0;
}

// Decomposes a --trace-out Chrome trace into per-request latency. Spans
// carry args.trace_id (stamped by the service's RequestScope), so all of
// one request's work — across threads, including stolen cast.task slices —
// folds back onto one row. Phases follow the batch pipeline: queue wait,
// parse, bind, relations fixpoint, update analysis, cast traversal (wall
// clock of cast.traverse; cast.task CPU is reported separately because
// parallel slices overlap). Aggregates group by the (src, tgt) schema-pair
// args on svc.cast spans.
int CmdTraceReport(int argc, char** argv) {
  if (argc != 1) return Usage();
  auto text = ReadFile(argv[0]);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 2;
  }
  auto parsed = json::Parse(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 parsed.status().ToString().c_str());
    return 2;
  }
  const json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: no traceEvents array\n", argv[0]);
    return 2;
  }

  struct RequestRow {
    uint64_t queue_us = 0;      // queue.wait
    uint64_t parse_us = 0;      // item.parse
    uint64_t bind_us = 0;       // item.bind
    uint64_t fixpoint_us = 0;   // relations.fixpoint
    uint64_t analyze_us = 0;    // analysis.compile / analysis.classify
    uint64_t traverse_us = 0;   // cast.traverse wall clock
    uint64_t task_cpu_us = 0;   // cast.task, summed across workers
    uint64_t service_us = 0;    // widest request-level span (post-dequeue)
    uint64_t total_us = 0;      // queue wait + service
    uint64_t tasks = 0;
    std::string pair;           // "src->tgt" schema handles (svc.cast args)
  };
  std::map<uint64_t, RequestRow> rows;  // keyed by trace_id, stable order

  auto arg_of = [](const json::Value& e, const char* key) -> uint64_t {
    const json::Value* value = nullptr;
    const json::Value* arguments = e.Find("args");
    if (arguments != nullptr) value = arguments->Find(key);
    return value != nullptr && value->is_number()
               ? static_cast<uint64_t>(value->AsNumber())
               : 0;
  };

  for (const json::Value& e : events->AsArray()) {
    const json::Value* ph = e.Find("ph");
    const json::Value* name = e.Find("name");
    const json::Value* dur = e.Find("dur");
    if (ph == nullptr || !ph->is_string() || ph->AsString() != "X" ||
        name == nullptr || !name->is_string() || dur == nullptr ||
        !dur->is_number()) {
      continue;  // flow events and metadata carry no duration
    }
    uint64_t trace_id = arg_of(e, "trace_id");
    if (trace_id == 0) continue;  // span outside any request scope
    RequestRow& row = rows[trace_id];
    const std::string& span = name->AsString();
    const auto micros = static_cast<uint64_t>(dur->AsNumber());
    if (span == "queue.wait") {
      row.queue_us += micros;
    } else if (span == "item.parse") {
      row.parse_us += micros;
    } else if (span == "item.bind") {
      row.bind_us += micros;
    } else if (span == "relations.fixpoint") {
      row.fixpoint_us += micros;
    } else if (span == "analysis.compile" || span == "analysis.classify") {
      row.analyze_us += micros;
    } else if (span == "cast.traverse") {
      row.traverse_us += micros;
    } else if (span == "cast.task") {
      row.task_cpu_us += micros;
      ++row.tasks;
    }
    // The request-level span (batch.item for batch work, the svc.* entry
    // span for direct calls) starts at dequeue, so queue wait is added on
    // top afterwards to get end-to-end latency.
    if (micros > row.service_us &&
        (span == "batch.item" || span.rfind("svc.", 0) == 0)) {
      row.service_us = micros;
    }
    if (span == "svc.cast") {
      uint64_t src = arg_of(e, "src");
      uint64_t tgt = arg_of(e, "tgt");
      if (row.pair.empty() && (src != 0 || tgt != 0)) {
        row.pair = std::to_string(src) + "->" + std::to_string(tgt);
      }
    }
  }
  if (rows.empty()) {
    std::printf("no request-scoped spans in %s (was tracing enabled?)\n",
                argv[0]);
    return 0;
  }

  // End-to-end = queue wait + the request-level span. A request with no
  // request-level span (tracing caught only fragments) still reports:
  // fall back to the phase sum so the row is comparable.
  for (auto& [id, row] : rows) {
    uint64_t phase_sum = row.queue_us + row.parse_us + row.bind_us +
                         row.fixpoint_us + row.analyze_us + row.traverse_us;
    row.total_us =
        row.service_us > 0 ? row.queue_us + row.service_us : phase_sum;
  }

  std::printf("%zu request(s) in %s\n\n", rows.size(), argv[0]);
  std::printf("%-18s %8s %8s %8s %8s %8s %8s %8s %9s %6s  %s\n", "trace_id",
              "total", "queue", "parse", "bind", "fixpnt", "analyze",
              "travrs", "task_cpu", "tasks", "pair");
  std::vector<const std::pair<const uint64_t, RequestRow>*> order;
  order.reserve(rows.size());
  for (const auto& entry : rows) order.push_back(&entry);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->second.total_us > b->second.total_us;
  });
  struct PairAgg {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t queue_us = 0;
    uint64_t traverse_us = 0;
  };
  std::map<std::string, PairAgg> pairs;
  constexpr size_t kMaxRows = 20;  // slowest first; the tail is noise
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& [id, row] = *order[i];
    if (i < kMaxRows) {
      std::printf("%-18llu %8llu %8llu %8llu %8llu %8llu %8llu %8llu "
                  "%9llu %6llu  %s\n",
                  (unsigned long long)id, (unsigned long long)row.total_us,
                  (unsigned long long)row.queue_us,
                  (unsigned long long)row.parse_us,
                  (unsigned long long)row.bind_us,
                  (unsigned long long)row.fixpoint_us,
                  (unsigned long long)row.analyze_us,
                  (unsigned long long)row.traverse_us,
                  (unsigned long long)row.task_cpu_us,
                  (unsigned long long)row.tasks, row.pair.c_str());
    }
    PairAgg& agg = pairs[row.pair.empty() ? "(direct)" : row.pair];
    ++agg.count;
    agg.total_us += row.total_us;
    agg.queue_us += row.queue_us;
    agg.traverse_us += row.traverse_us;
  }
  if (order.size() > kMaxRows) {
    std::printf("... %zu more (slowest %zu shown)\n", order.size() - kMaxRows,
                kMaxRows);
  }
  std::printf("\nper schema pair (means, us):\n");
  std::printf("  %-20s %8s %10s %10s %10s\n", "pair", "count", "total",
              "queue", "traverse");
  for (const auto& [pair, agg] : pairs) {
    std::printf("  %-20s %8llu %10.1f %10.1f %10.1f\n", pair.c_str(),
                (unsigned long long)agg.count,
                double(agg.total_us) / double(agg.count),
                double(agg.queue_us) / double(agg.count),
                double(agg.traverse_us) / double(agg.count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* command = argv[1];
  if (std::strcmp(command, "validate") == 0) {
    return CmdValidate(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "cast") == 0) return CmdCast(argc - 2, argv + 2);
  if (std::strcmp(command, "correct") == 0) {
    return CmdCorrect(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "sample") == 0) {
    return CmdSample(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "relations") == 0) {
    return CmdRelations(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "export") == 0) {
    return CmdExport(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "compile") == 0) {
    return CmdCompile(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "serve-batch") == 0) {
    return CmdServeBatch(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "analyze-updates") == 0) {
    return CmdAnalyzeUpdates(argc - 2, argv + 2);
  }
  if (std::strcmp(command, "stats") == 0) return CmdStats(argc - 2, argv + 2);
  if (std::strcmp(command, "trace-report") == 0) {
    return CmdTraceReport(argc - 2, argv + 2);
  }
  return Usage();  // unknown subcommand: usage message, exit 2
}
