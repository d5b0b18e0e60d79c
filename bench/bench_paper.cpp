// Prints every table of EXPERIMENTS.md as Markdown: the paper's Table 2,
// Figures 3a and 3b and Table 3 (§6), and ablations A1-A5, A7 and A8.
//
//   ./build/bench/bench_paper
//
// Inputs and counts (bytes, nodes visited, symbols scanned, repairs) come
// from bench/paper_experiments.h, whose counts tests/paper_claims_test.cc
// pins; times are medians of repeated in-process runs. The first line
// stamps the machine and the build: times from a Debug build, or from a
// different machine, are not comparable with the committed ones.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/paper_experiments.h"

#ifndef XMLREVAL_BENCH_BUILD_TYPE
#define XMLREVAL_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace xmlreval;
using bench::Require;

/// The paper's Table 2, bytes, over kItemGrid.
constexpr size_t kPaperTable2Bytes[] = {990,   11358,  22158,
                                        43758, 108558, 216558};

/// The paper's Table 3 over kItemGrid: nodes traversed by its schema cast
/// and by Xerces.
struct PaperTable3Row {
  size_t cast;
  size_t xerces;
};
constexpr PaperTable3Row kPaperTable3[] = {
    {35, 74},     {611, 794},   {1211, 1544},
    {2411, 3044}, {6011, 7544}, {12011, 15044}};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// A duration in µs with about three significant digits.
std::string Us(double ns) {
  const double us = ns / 1000.0;
  char buffer[32];
  const char* format = us < 1 ? "%.3f" : us < 10 ? "%.2f" : "%.1f";
  std::snprintf(buffer, sizeof(buffer), us < 1000 ? format : "%.0f", us);
  return buffer;
}

/// Median time per call of `run`. Fast calls are timed in batches, so
/// that one sample lasts about 20 µs and the clock's own cost stays out of
/// the figure.
template <typename F>
double PerCallNs(F&& run) {
  const double once = bench::TimeNs(run);
  const size_t calls =
      std::clamp<size_t>(size_t(20000.0 / std::max(once, 1.0)), 1, 10000);
  return bench::MedianNs([&] {
           for (size_t i = 0; i < calls; ++i) run();
         }) /
         double(calls);
}

/// Binds `doc` to `pair`'s alphabet, so validators read symbols instead of
/// looking labels up: the path the service takes.
xml::Document Bound(const bench::SchemaPair& pair, xml::Document doc) {
  Require(doc.Bind(pair.alphabet).ok(), "bind");
  return doc;
}

double CastNs(const bench::SchemaPair& pair, const xml::Document& doc) {
  core::CastValidator cast(pair.relations.get());
  return PerCallNs([&] { Require(cast.Validate(doc).valid, "cast"); });
}

double FullNs(const bench::SchemaPair& pair, const xml::Document& doc) {
  core::FullValidator full(pair.target.get());
  return PerCallNs([&] { Require(full.Validate(doc).valid, "full"); });
}

void Table2() {
  std::printf(
      "### Table 2 — input document sizes\n\n"
      "| # items | ours (bytes) | paper (bytes) | ours, bytes/item |\n"
      "|---:|---:|---:|---:|\n");
  size_t previous_bytes = 0, previous_items = 0;
  for (size_t i = 0; i < std::size(bench::kItemGrid); ++i) {
    const size_t items = bench::kItemGrid[i];
    const size_t bytes = bench::Table2Bytes(items);
    std::string per_item = "—";
    if (previous_items != 0) {
      per_item = std::to_string((bytes - previous_bytes) /
                                (items - previous_items));
    }
    std::printf("| %zu | %zu | %zu | %s |\n", items, bytes,
                kPaperTable2Bytes[i], per_item.c_str());
    previous_bytes = bytes;
    previous_items = items;
  }
}

void Figure3(const char* title, const bench::SchemaPair& pair) {
  std::printf(
      "\n### %s\n\n"
      "| # items | cast (µs) | full (µs) | full / cast | nodes cast / full |\n"
      "|---:|---:|---:|---:|---:|\n",
      title);
  for (size_t items : bench::kItemGrid) {
    const xml::Document doc = Bound(pair, bench::PurchaseOrder(items));
    const bench::VisitCounts visits = bench::CastAndFullVisits(pair, doc);
    const double cast_ns = CastNs(pair, doc);
    const double full_ns = FullNs(pair, doc);
    std::printf("| %zu | %s | %s | %.1f× | %llu / %llu |\n", items,
                Us(cast_ns).c_str(), Us(full_ns).c_str(), full_ns / cast_ns,
                static_cast<unsigned long long>(visits.cast),
                static_cast<unsigned long long>(visits.full));
  }
}

void Table3() {
  std::printf(
      "\n### Table 3 — nodes traversed in Experiment 2\n\n"
      "| # items | cast (ours) | full (ours) | ratio | cast (paper) | "
      "Xerces (paper) | ratio |\n"
      "|---:|---:|---:|---:|---:|---:|---:|\n");
  for (size_t i = 0; i < std::size(bench::kItemGrid); ++i) {
    const bench::VisitCounts visits =
        bench::Table3Visits(bench::kItemGrid[i]);
    const PaperTable3Row& paper = kPaperTable3[i];
    std::printf("| %zu | %llu | %llu | %.2f | %zu | %zu | %.2f |\n",
                bench::kItemGrid[i],
                static_cast<unsigned long long>(visits.cast),
                static_cast<unsigned long long>(visits.full),
                double(visits.cast) / double(visits.full), paper.cast,
                paper.xerces, double(paper.cast) / double(paper.xerces));
  }
}

void A1() {
  std::printf(
      "\n### A1 — string revalidation, §4.2 (symbols read / µs)\n\n"
      "| case | n | c_immed | b_immed | plain DFA |\n"
      "|---|---:|---:|---:|---:|\n");
  for (bench::Divergence d :
       {bench::Divergence::kNone, bench::Divergence::kEarly,
        bench::Divergence::kLate}) {
    for (size_t n : bench::kA1Lengths) {
      const bench::A1Counts counts = bench::A1Symbols(d, n);
      auto c = bench::MakeStringCase(d, n);
      const double c_ns = PerCallNs(
          [&] { Require(c->reval->Revalidate(c->input).accepted, "A1"); });
      const double b_ns = PerCallNs(
          [&] { Require(c->reval->ValidateFresh(c->input).accepted, "A1"); });
      const double plain_ns =
          PerCallNs([&] { Require(c->target->Accepts(c->input), "A1"); });
      std::printf("| %s | %zu | %zu / %s | %zu / %s | %zu / %s |\n",
                  bench::DivergenceName(d), n, counts.c_immed,
                  Us(c_ns).c_str(), counts.b_immed, Us(b_ns).c_str(),
                  counts.plain, Us(plain_ns).c_str());
    }
  }
}

void A2() {
  std::printf(
      "\n### A2 — one edit in a string of %zu, §4.3 "
      "(symbols read, new + source / µs)\n\n"
      "| edit at | adaptive | direction | forward only | fresh b_immed |\n"
      "|---:|---:|---|---:|---:|\n",
      bench::kA2Length);
  for (int percent : bench::kA2Positions) {
    const bench::A2Counts counts = bench::A2Symbols(percent);
    auto adaptive = bench::MakeModifiedStringCase(percent, true);
    auto forward = bench::MakeModifiedStringCase(percent, false);
    const double adaptive_ns = PerCallNs([&] {
      Require(adaptive->reval->RevalidateModified(adaptive->old_s,
                                                  adaptive->new_s)
                  .accepted,
              "A2");
    });
    const double forward_ns = PerCallNs([&] {
      Require(
          forward->reval->RevalidateModified(forward->old_s, forward->new_s)
              .accepted,
          "A2");
    });
    const double fresh_ns = PerCallNs([&] {
      Require(adaptive->reval->ValidateFresh(adaptive->new_s).accepted, "A2");
    });
    std::printf("| %d%% | %zu / %s | %s | %zu / %s | %zu / %s |\n", percent,
                counts.adaptive, Us(adaptive_ns).c_str(),
                counts.backward ? "backward" : "forward", counts.forward_only,
                Us(forward_ns).c_str(), counts.fresh, Us(fresh_ns).c_str());
  }
}

void A3() {
  std::printf(
      "\n### A3 — preprocessing a chain pair with nothing subsumed\n\n"
      "| types per schema | subsumed / non-disjoint pairs | "
      "relations + §4 automata (µs) | relations only (µs) |\n"
      "|---:|---:|---:|---:|\n");
  for (int depth : bench::kA3Chains) {
    const bench::RelationCounts counts = bench::A3Relations(depth);
    const bench::ChainPair pair = bench::MakeChainPair(depth);
    core::TypeRelations::Options relations_only;
    relations_only.build_pair_automata = false;
    relations_only.build_single_automata = false;
    auto compute = [&](const core::TypeRelations::Options& options) {
      return bench::MedianNs(
          [&] {
            Require(core::TypeRelations::Compute(pair.source.get(),
                                                 pair.target.get(), options)
                        .ok(),
                    "A3");
          },
          5, 1);
    };
    const double with_automata_ns = compute(core::TypeRelations::Options{});
    const double relations_only_ns = compute(relations_only);
    std::printf("| %d | %zu / %zu | %s | %s |\n", depth + 1, counts.subsumed,
                counts.non_disjoint, Us(with_automata_ns).c_str(),
                Us(relations_only_ns).c_str());
  }
}

void A4() {
  std::printf(
      "\n### A4 — k quantity edits of a %zu-item order, §3.3 "
      "(nodes / µs)\n\n"
      "| k | incremental (ModValidator) | full revalidation |\n"
      "|---:|---:|---:|\n",
      bench::kA4Items);
  const bench::SchemaPair& pair = bench::SingleSchemaPair();
  for (size_t k : bench::kA4Edits) {
    const bench::A4Counts counts = bench::A4Visits(k);
    xml::Document doc = Bound(pair, bench::PurchaseOrder(bench::kA4Items));
    const xml::ModificationIndex mods = bench::RewriteQuantities(&doc, k);
    core::ModValidator incremental(pair.relations.get());
    const double incremental_ns = PerCallNs(
        [&] { Require(incremental.Validate(doc, mods).valid, "A4"); });
    std::printf("| %zu | %llu / %s | %llu / %s |\n", k,
                static_cast<unsigned long long>(counts.incremental),
                Us(incremental_ns).c_str(),
                static_cast<unsigned long long>(counts.full),
                Us(FullNs(pair, doc)).c_str());
  }
}

void A5() {
  std::printf(
      "\n### A5 — the §3.4 label index, Experiment 2 (nodes / µs)\n\n"
      "| # items | label index | index + its build | top-down cast | "
      "full |\n"
      "|---:|---:|---:|---:|---:|\n");
  const bench::SchemaPair& pair = bench::Experiment2Pair();
  auto validator = core::DtdIndexValidator::Create(pair.relations.get());
  Require(validator.ok(), "A5 validator");
  for (size_t items : bench::kA5Items) {
    const xml::Document doc = Bound(pair, bench::PurchaseOrder(items));
    const xml::LabelIndex index = xml::LabelIndex::Build(doc);
    const uint64_t index_visits = bench::A5IndexVisits(items);
    const bench::VisitCounts visits = bench::Table3Visits(items);
    const double index_ns = PerCallNs(
        [&] { Require(validator->Validate(doc, index).valid, "A5"); });
    const double with_build_ns = PerCallNs([&] {
      const xml::LabelIndex fresh = xml::LabelIndex::Build(doc);
      Require(validator->Validate(doc, fresh).valid, "A5");
    });
    std::printf("| %zu | %llu / %s | %s | %llu / %s | %llu / %s |\n", items,
                static_cast<unsigned long long>(index_visits),
                Us(index_ns).c_str(), Us(with_build_ns).c_str(),
                static_cast<unsigned long long>(visits.cast),
                Us(CastNs(pair, doc)).c_str(),
                static_cast<unsigned long long>(visits.full),
                Us(FullNs(pair, doc)).c_str());
  }
}

/// Median time of correcting a fresh `make()` document to `pair`'s target;
/// making the document is not timed.
double CorrectNs(const bench::SchemaPair& pair,
                 const std::function<xml::Document()>& make) {
  core::DocumentCorrector corrector(pair.relations.get());
  std::vector<double> samples;
  for (int i = 0; i < 10; ++i) {
    xml::Document doc = make();
    const double ns =
        bench::TimeNs([&] { Require(corrector.Correct(&doc).ok(), "A7"); });
    if (i > 0) samples.push_back(ns);  // the first run warms up
  }
  return bench::Median(std::move(samples));
}

void A7() {
  std::printf(
      "\n### A7 — correcting a %zu-item order to the target\n\n"
      "| scenario | repairs | µs |\n"
      "|---|---:|---:|\n",
      bench::kA7Items);
  const bench::SchemaPair& exp2 = bench::Experiment2Pair();
  auto row = [](const std::string& scenario, size_t repairs, double ns) {
    std::printf("| %s | %zu | %s |\n", scenario.c_str(), repairs,
                Us(ns).c_str());
  };
  auto clean = [] { return bench::PurchaseOrder(bench::kA7Items); };
  row("already valid (Experiment 2)", bench::Repairs(exp2, clean()),
      CorrectNs(exp2, clean));
  std::printf("| cast, same order (no repair) | — | %s |\n",
              Us(CastNs(exp2, clean())).c_str());
  for (size_t violations : bench::kA7Violations) {
    auto make = [&] { return bench::OrderWithBadQuantities(violations); };
    row(std::to_string(violations) +
            (violations == 1 ? " quantity" : " quantities") +
            " ≥ 100 (Experiment 2)",
        bench::Repairs(exp2, make()), CorrectNs(exp2, make));
  }
  const bench::SchemaPair& exp1 = bench::Experiment1Pair();
  row("no billTo (Experiment 1)",
      bench::Repairs(exp1, bench::OrderWithoutBillTo()),
      CorrectNs(exp1, bench::OrderWithoutBillTo));
}

void A8() {
  std::printf(
      "\n### A8 — one shared CastValidator, one 200-item order per thread, "
      "Experiment 2\n\n"
      "| threads | casts/s, all threads | × one thread |\n"
      "|---:|---:|---:|\n");
  const bench::SchemaPair& pair = bench::Experiment2Pair();
  const core::CastValidator cast(pair.relations.get());
  constexpr size_t kCastsPerThread = 2000;
  double one_thread_rate = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    std::latch start(threads + 1);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const xml::Document doc =
            Bound(pair, bench::PurchaseOrder(200, 100 + t));
        for (int i = 0; i < 20; ++i) Require(cast.Validate(doc).valid, "A8");
        start.arrive_and_wait();
        for (size_t i = 0; i < kCastsPerThread; ++i) {
          Require(cast.Validate(doc).valid, "A8");
        }
      });
    }
    const double ns = bench::TimeNs([&] {
      start.arrive_and_wait();
      for (std::thread& worker : workers) worker.join();
    });
    const double rate = double(threads * kCastsPerThread) / (ns / 1e9);
    if (threads == 1) one_thread_rate = rate;
    std::printf("| %zu | %.0f | %.2f× |\n", threads, rate,
                rate / one_thread_rate);
  }
}

}  // namespace

int main() {
  std::printf(
      "Machine: nproc %ld, hardware_concurrency %u, CPU %s; compiler %s; "
      "build %s\n\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      CpuModel().c_str(), __VERSION__, XMLREVAL_BENCH_BUILD_TYPE);
  Table2();
  Figure3("Figure 3a — Experiment 1: Figure 1a → Figure 2",
          bench::Experiment1Pair());
  Figure3("Figure 3b — Experiment 2: quantity < 200 → quantity < 100",
          bench::Experiment2Pair());
  Table3();
  A1();
  A2();
  A3();
  A4();
  A5();
  A7();
  A8();
  return 0;
}
