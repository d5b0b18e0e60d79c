// Integration tests for the xmlreval CLI: spawn the real binary (path
// injected by CMake) against files written to a temp directory and check
// exit codes + output fragments.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "common/json.h"

// Some tests assert that instrumentation actually records samples; with
// the compile-time escape hatch active there is nothing to observe.
#ifdef XMLREVAL_OBS_DISABLED
#define SKIP_IF_OBS_COMPILED_OUT() \
  GTEST_SKIP() << "instrumentation compiled out (XMLREVAL_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_COMPILED_OUT() (void)0
#endif


#ifndef XMLREVAL_CLI_PATH
#error "XMLREVAL_CLI_PATH must be defined by the build"
#endif

namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xmlreval_cli_" +
           std::to_string(::getpid());
    ASSERT_EQ(system(("mkdir -p " + dir_).c_str()), 0);
    WriteFile("v1.dtd",
              "<!ELEMENT note (to, from, body?)>\n"
              "<!ELEMENT to (#PCDATA)><!ELEMENT from (#PCDATA)>\n"
              "<!ELEMENT body (#PCDATA)>\n");
    WriteFile("v2.dtd",
              "<!ELEMENT note (to, from, body)>\n"
              "<!ELEMENT to (#PCDATA)><!ELEMENT from (#PCDATA)>\n"
              "<!ELEMENT body (#PCDATA)>\n");
    WriteFile("ok.xml",
              "<note><to>a</to><from>b</from><body>c</body></note>");
    WriteFile("nobody.xml", "<note><to>a</to><from>b</from></note>");
    WriteFile("broken.xml", "<note><to>a</to>");
  }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ + "/" + name);
    out << content;
  }

  // Runs the CLI; returns the exit code (stdout/stderr to a capture file).
  int Run(const std::string& args) {
    std::string command = std::string(XMLREVAL_CLI_PATH) + " " + args +
                          " > " + dir_ + "/out.txt 2>&1";
    int status = system(command.c_str());
    return WEXITSTATUS(status);
  }

  // Runs the CLI with stdout captured to `outfile` (stderr discarded).
  int RunTo(const std::string& args, const std::string& outfile) {
    std::string command = std::string(XMLREVAL_CLI_PATH) + " " + args +
                          " > " + outfile + " 2> " + dir_ + "/err.txt";
    int status = system(command.c_str());
    return WEXITSTATUS(status);
  }

  std::string Output() {
    std::ifstream in(dir_ + "/out.txt");
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string P(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(CliTest, ValidateValidAndInvalid) {
  EXPECT_EQ(Run("validate " + P("v1.dtd") + " " + P("ok.xml")), 0);
  EXPECT_NE(Output().find("VALID"), std::string::npos);
  EXPECT_EQ(Run("validate " + P("v2.dtd") + " " + P("nobody.xml")), 1);
  EXPECT_NE(Output().find("INVALID"), std::string::npos);
}

TEST_F(CliTest, CastChecksPreconditionThenTarget) {
  EXPECT_EQ(Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " + P("ok.xml")),
            0);
  EXPECT_EQ(
      Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " + P("nobody.xml")),
      1);
  // A document violating the SOURCE schema is a usage error (exit 2), not
  // an "invalid" verdict.
  WriteFile("alien.xml", "<other/>");
  EXPECT_EQ(
      Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " + P("alien.xml")),
      2);
}

TEST_F(CliTest, CastStreamVerdictsAndAccounting) {
  // Valid cast from a file, tiny chunks to force carry across boundaries.
  EXPECT_EQ(Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --stream --chunk-bytes 3"),
            0);
  std::string out = Output();
  EXPECT_NE(out.find("VALID"), std::string::npos);
  EXPECT_NE(out.find("stream: bytes_fed="), std::string::npos);

  // Same input from stdin via '-': identical accounting line.
  EXPECT_EQ(Run("cast " + P("v1.dtd") + " " + P("v2.dtd") +
                " - --stream --chunk-bytes 3 < " + P("ok.xml")),
            0);
  EXPECT_EQ(Output(), out);

  // Invalid under the target → exit 1; stream mode trusts the source
  // precondition, so the missing <body> surfaces as the violation.
  EXPECT_EQ(Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("nobody.xml") + " --stream"),
            1);
  EXPECT_NE(Output().find("INVALID"), std::string::npos);

  // Truncated input is an input error (exit 2), not a verdict.
  EXPECT_EQ(Run("cast " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("broken.xml") + " --stream"),
            2);
}

TEST_F(CliTest, ServeBatchStreamThresholdRoutesCasts) {
  SKIP_IF_OBS_COMPILED_OUT();
  EXPECT_EQ(RunTo("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                      P("ok.xml") + " --stream-threshold-bytes 1" +
                      " --metrics-out " + P("m.json"),
                  P("batch.txt")),
            0);
  std::ifstream in(P("m.json"));
  std::string metrics((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // The one cast item is >= 1 byte, so it went through the stream path:
  // one cast_stream op, zero plain casts, and ok.xml's 51 bytes on the
  // stream byte counter.
  EXPECT_NE(metrics.find("{\"op\":\"cast_stream\"},\"value\":1"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("{\"op\":\"cast\"},\"value\":0"), std::string::npos)
      << metrics;
  EXPECT_NE(
      metrics.find("\"xmlreval_stream_bytes_total\",\"labels\":{},\"value\":51"),
      std::string::npos)
      << metrics;
}

TEST_F(CliTest, CorrectWritesRepairedDocument) {
  EXPECT_EQ(Run("correct " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("nobody.xml") + " -o " + P("fixed.xml")),
            0);
  EXPECT_NE(Output().find("1 repair(s)"), std::string::npos);
  // The repaired document passes a v2 validate.
  EXPECT_EQ(Run("validate " + P("v2.dtd") + " " + P("fixed.xml")), 0);
}

TEST_F(CliTest, CorrectDeepChain) {
  // 200,000 nested c's with an x under the deepest: the repair deletes it.
  WriteFile("chain-v1.dtd", "<!ELEMENT c (c?,x?)>\n<!ELEMENT x EMPTY>\n");
  WriteFile("chain-v2.dtd", "<!ELEMENT c (c?)>\n");
  constexpr size_t kDepth = 200000;
  std::string text;
  text.reserve(kDepth * 7 + 4);
  for (size_t i = 0; i < kDepth; ++i) text += "<c>";
  text += "<x/>";
  for (size_t i = 0; i < kDepth; ++i) text += "</c>";
  WriteFile("chain.xml", text);
  EXPECT_EQ(Run("correct " + P("chain-v1.dtd") + " " + P("chain-v2.dtd") +
                " " + P("chain.xml") + " -o " + P("chain-fixed.xml")),
            0)
      << Output();
  EXPECT_NE(Output().find("1 repair(s)"), std::string::npos) << Output();
  EXPECT_EQ(Run("validate " + P("chain-v2.dtd") + " " + P("chain-fixed.xml")),
            0)
      << Output();
}

TEST_F(CliTest, CorrectNamesAttributeRepairs) {
  // Source: a and b optional. Target: b required, a undeclared. The fix
  // drops a and sets b, and each repair line names its kind.
  WriteFile("attr-v1.xsd", R"(<schema>
  <element name="r" type="R"/>
  <complexType name="R">
    <sequence><element name="x" type="string"/></sequence>
    <attribute name="a" type="string" use="optional"/>
    <attribute name="b" type="string" use="optional"/>
  </complexType>
</schema>)");
  WriteFile("attr-v2.xsd", R"(<schema>
  <element name="r" type="R"/>
  <complexType name="R">
    <sequence><element name="x" type="string"/></sequence>
    <attribute name="b" type="string" use="required"/>
  </complexType>
</schema>)");
  WriteFile("attr.xml", "<r a=\"1\"><x>v</x></r>");
  EXPECT_EQ(Run("correct " + P("attr-v1.xsd") + " " + P("attr-v2.xsd") + " " +
                P("attr.xml") + " -o " + P("attr-fixed.xml")),
            0);
  std::string out = Output();
  EXPECT_NE(out.find("2 repair(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("del-attr"), std::string::npos) << out;
  EXPECT_NE(out.find("set-attr"), std::string::npos) << out;
  EXPECT_EQ(out.find("  ? "), std::string::npos) << out;
  EXPECT_EQ(Run("validate " + P("attr-v2.xsd") + " " + P("attr-fixed.xml")),
            0);
}

TEST_F(CliTest, SampleProducesValidDocument) {
  EXPECT_EQ(RunTo("sample " + P("v2.dtd") + " --root note --seed 9",
                  P("sampled.xml")),
            0);
  EXPECT_EQ(Run("validate " + P("v2.dtd") + " " + P("sampled.xml")), 0);
}

TEST_F(CliTest, RelationsDumpsPairs) {
  EXPECT_EQ(Run("relations " + P("v1.dtd") + " " + P("v2.dtd")), 0);
  std::string out = Output();
  EXPECT_NE(out.find("<="), std::string::npos);
}

TEST_F(CliTest, ExportConvertsDtdToParseableXsd) {
  EXPECT_EQ(RunTo("export " + P("v1.dtd"), P("v1.xsd")), 0);
  // The exported XSD loads and validates the same documents.
  EXPECT_EQ(Run("validate " + P("v1.xsd") + " " + P("ok.xml")), 0);
  EXPECT_EQ(Run("validate " + P("v1.xsd") + " " + P("nobody.xml")), 0);
}

TEST_F(CliTest, ErrorsAreUsageExitCode) {
  EXPECT_EQ(Run(""), 2);
  EXPECT_EQ(Run("frobnicate x y"), 2);
  // Unknown subcommands print the usage text, which documents serve-batch.
  EXPECT_NE(Output().find("usage:"), std::string::npos);
  EXPECT_NE(Output().find("serve-batch"), std::string::npos);
  EXPECT_EQ(Run("validate " + P("missing.dtd") + " " + P("ok.xml")), 2);
  EXPECT_EQ(Run("validate " + P("v1.dtd") + " " + P("broken.xml")), 2);
}

TEST_F(CliTest, ServeBatchCastsAllDocuments) {
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --threads 2 --repeat 3"),
            0);
  std::string out = Output();
  EXPECT_NE(out.find("ok.xml: VALID"), std::string::npos);
  EXPECT_NE(out.find("3 documents"), std::string::npos);
  EXPECT_NE(out.find("1 fixpoint(s) computed"), std::string::npos);

  // A batch containing an invalid document exits 1 and names the culprit.
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " " + P("nobody.xml")),
            1);
  EXPECT_NE(Output().find("nobody.xml: INVALID"), std::string::npos);

  // Malformed XML is an item-level error: exit 2.
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("broken.xml")),
            2);

  // Usage errors: missing documents, bad flag, zero repeat.
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd")), 2);
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --bogus"),
            2);
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --repeat 0"),
            2);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Finds entry by name (and optional single label) in a metrics-dump array.
const xmlreval::json::Value* FindMetric(const xmlreval::json::Value& dump,
                                        const char* section,
                                        const std::string& name,
                                        const std::string& op = "") {
  const xmlreval::json::Value* entries = dump.Find(section);
  if (entries == nullptr || !entries->is_array()) return nullptr;
  for (const auto& e : entries->AsArray()) {
    const xmlreval::json::Value* n = e.Find("name");
    if (n == nullptr || n->AsString() != name) continue;
    if (!op.empty()) {
      const xmlreval::json::Value* labels = e.Find("labels");
      const xmlreval::json::Value* v =
          labels != nullptr ? labels->Find("op") : nullptr;
      if (v == nullptr || v->AsString() != op) continue;
    }
    return &e;
  }
  return nullptr;
}

TEST_F(CliTest, ServeBatchWritesMetricsDumpThatReconciles) {
  SKIP_IF_OBS_COMPILED_OUT();
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --repeat 4 --metrics-out " +
                P("metrics.json")),
            0);
  auto dump = xmlreval::json::Parse(Slurp(P("metrics.json")));
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();

  const auto* requests =
      FindMetric(*dump, "counters", "xmlreval_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("value")->AsNumber(), 4.0);
  // The cast latency histogram's count reconciles with the op counter.
  const auto* cast_requests =
      FindMetric(*dump, "counters", "xmlreval_op_requests_total", "cast");
  const auto* cast_latency = FindMetric(
      *dump, "histograms", "xmlreval_request_latency_us", "cast");
  ASSERT_NE(cast_requests, nullptr);
  ASSERT_NE(cast_latency, nullptr);
  EXPECT_EQ(cast_requests->Find("value")->AsNumber(), 4.0);
  EXPECT_EQ(cast_latency->Find("count")->AsNumber(), 4.0);
  const auto* service_us =
      FindMetric(*dump, "histograms", "xmlreval_batch_service_us");
  ASSERT_NE(service_us, nullptr);
  EXPECT_EQ(service_us->Find("count")->AsNumber(), 4.0);

  // Non-.json paths get Prometheus text exposition.
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --metrics-out " + P("metrics.prom")),
            0);
  std::string prom = Slurp(P("metrics.prom"));
  EXPECT_NE(prom.find("# TYPE xmlreval_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("xmlreval_request_latency_us_bucket"),
            std::string::npos);
}

TEST_F(CliTest, ServeBatchWritesPerfettoLoadableTrace) {
  SKIP_IF_OBS_COMPILED_OUT();
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --repeat 2 --trace-out " + P("trace.json")),
            0);
  auto trace = xmlreval::json::Parse(Slurp(P("trace.json")));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const auto* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->AsArray().empty());
  bool saw_traverse = false;
  for (const auto& e : events->AsArray()) {
    // Complete spans plus Chrome flow events (cross-thread causal arrows).
    std::string ph = e.Find("ph")->AsString();
    EXPECT_TRUE(ph == "X" || ph == "s" || ph == "t" || ph == "f") << ph;
    ASSERT_NE(e.Find("ts"), nullptr);
    if (ph == "X") {
      ASSERT_NE(e.Find("dur"), nullptr);
    } else {
      // Flow events bind via a shared id, not a duration.
      ASSERT_NE(e.Find("id"), nullptr);
    }
    if (e.Find("name")->AsString() == "cast.traverse") saw_traverse = true;
  }
  EXPECT_TRUE(saw_traverse);
}

TEST_F(CliTest, StatsPrettyPrintsAndRejectsGarbage) {
  EXPECT_EQ(Run("serve-batch " + P("v1.dtd") + " " + P("v2.dtd") + " " +
                P("ok.xml") + " --metrics-out " + P("metrics.json")),
            0);
  EXPECT_EQ(Run("stats " + P("metrics.json")), 0);
  std::string out = Output();
  EXPECT_NE(out.find("counters:"), std::string::npos);
  EXPECT_NE(out.find("xmlreval_requests_total"), std::string::npos);
  EXPECT_NE(out.find("histograms:"), std::string::npos);
  EXPECT_NE(out.find("xmlreval_request_latency_us{op=cast}"),
            std::string::npos);

  WriteFile("garbage.json", "{not json");
  EXPECT_EQ(Run("stats " + P("garbage.json")), 2);
  EXPECT_EQ(Run("stats " + P("missing.json")), 2);
  EXPECT_EQ(Run("stats"), 2);
}

// ------------------------------------------------------- analyze-updates

class AnalyzeUpdatesCliTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    WriteFile("star.dtd",
              "<!ELEMENT feed ((entry|note)*)>\n"
              "<!ELEMENT entry (#PCDATA)><!ELEMENT note (#PCDATA)>\n"
              "<!ELEMENT meta (title)><!ELEMENT title (#PCDATA)>\n");
    WriteFile("feed.xml",
              "<feed><entry>a</entry><note>b</note>"
              "<entry>c</entry><note>d</note></feed>");
  }

  std::string Base() {
    return "analyze-updates " + P("star.dtd") + " " + P("star.dtd") + " " +
           P("feed.xml");
  }

  // Reconciles the --metrics-out dump of one analyze-updates run with its
  // printed "N edit(s): S safe, F fatal, U unknown" line: one stream on
  // `path` and, per verdict, as many ops as printed. Counters count in
  // every build, so this holds with instrumentation compiled out too.
  void ExpectMetricsReconcile(const std::string& out,
                              const std::string& path) {
    const size_t at = out.find(" edit(s): ");
    ASSERT_NE(at, std::string::npos) << out;
    const size_t newline = out.rfind('\n', at);
    const size_t line = newline == std::string::npos ? 0 : newline + 1;
    unsigned long edits = 0, safe = 0, fatal = 0, unknown = 0;
    ASSERT_EQ(std::sscanf(out.c_str() + line,
                          "%lu edit(s): %lu safe, %lu fatal, %lu unknown",
                          &edits, &safe, &fatal, &unknown),
              4)
        << out;
    EXPECT_EQ(safe + fatal + unknown, edits) << out;

    auto dump = xmlreval::json::Parse(Slurp(P("metrics.json")));
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    const xmlreval::json::Value* counters = dump->Find("counters");
    ASSERT_NE(counters, nullptr);
    std::map<std::string, double> streams, ops;
    for (const auto& e : counters->AsArray()) {
      const std::string& name = e.Find("name")->AsString();
      const xmlreval::json::Value* labels = e.Find("labels");
      const double value = e.Find("value")->AsNumber();
      if (name == "xmlreval_edit_streams_total") {
        streams[labels->Find("path")->AsString()] += value;
      } else if (name == "xmlreval_edit_ops_total") {
        ops[labels->Find("verdict")->AsString()] += value;
      }
    }
    EXPECT_EQ(streams[path], 1.0) << path;
    double all_streams = 0;
    for (const auto& [unused, n] : streams) all_streams += n;
    EXPECT_EQ(all_streams, 1.0);
    EXPECT_EQ(ops["safe"], double(safe));
    EXPECT_EQ(ops["fatal"], double(fatal));
    EXPECT_EQ(ops["unknown"], double(unknown));
  }
};

TEST_F(AnalyzeUpdatesCliTest, SafeStreamShortCircuits) {
  // The generator is deterministic under --seed; seed 2 draws one
  // statically safe edit.
  EXPECT_EQ(
      Run(Base() + " --edits 1 --seed 2 --metrics-out " + P("metrics.json")),
      0);
  std::string out = Output();
  EXPECT_NE(out.find("1 safe, 0 fatal, 0 unknown"), std::string::npos) << out;
  EXPECT_NE(out.find("short-circuited"), std::string::npos) << out;
  EXPECT_NE(out.find("analyze-updates: VALID"), std::string::npos) << out;
  ExpectMetricsReconcile(out, "short_circuit_safe");
}

TEST_F(AnalyzeUpdatesCliTest, FatalStreamShortCircuitsAsInvalid) {
  // Seed 1 draws a root rename to a disjoint type: statically fatal.
  EXPECT_EQ(
      Run(Base() + " --edits 1 --seed 1 --metrics-out " + P("metrics.json")),
      1);
  std::string out = Output();
  EXPECT_NE(out.find("0 safe, 1 fatal, 0 unknown"), std::string::npos) << out;
  EXPECT_NE(out.find("stream verdict: fatal"), std::string::npos) << out;
  EXPECT_NE(out.find("analyze-updates: INVALID"), std::string::npos) << out;
  ExpectMetricsReconcile(out, "short_circuit_fatal");
}

TEST_F(AnalyzeUpdatesCliTest, UndecidedStreamFallsBackAndDumpsMetrics) {
  SKIP_IF_OBS_COMPILED_OUT();
  // Seed 3 with 6 edits entangles everything: fallback path, valid result.
  EXPECT_EQ(
      Run(Base() + " --edits 6 --seed 3 --metrics-out " + P("metrics.json")),
      0);
  std::string out = Output();
  EXPECT_NE(out.find("fell back to incremental revalidation"),
            std::string::npos)
      << out;

  EXPECT_NE(out.find("6 edit(s): "), std::string::npos) << out;
  ExpectMetricsReconcile(out, "fallback");
}

TEST_F(AnalyzeUpdatesCliTest, UsageErrors) {
  EXPECT_EQ(Run("analyze-updates " + P("star.dtd") + " " + P("star.dtd")), 2);
  EXPECT_EQ(Run(Base() + " --safe-percent 150"), 2);
  EXPECT_EQ(Run(Base() + " --bogus-flag"), 2);
}

}  // namespace
