// Parallel intra-document cast validation: 1→N thread scaling curve.
//
// The Experiment 2 regime (relaxed-quantity source cast to the strict
// Figure 2 target — root pair NOT subsumed, so every item subtree is
// traversed) over the Table 2 item-count grid, timed three ways:
//
//   * serial      — CastValidator, the baseline every speedup is against
//   * par_tK      — ParallelCastValidator on a K-worker executor
//   * thresh_T    — spawn-threshold ablation at 4 workers, 1000 items
//
// Medians of repeated runs; documents are pre-parsed and BOUND (the
// symbol fast path) so the timing isolates the traversal.
//
// The committed BENCH_parallel.json records hardware_concurrency: scaling
// numbers are only meaningful relative to the cores the run actually had
// (CI containers are often 1-2 cores; par_t1-within-10%-of-serial is the
// machine-independent assertion, checked by tools/smoke/parallel.sh).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <cstring>
#include <fstream>

#include "bench/bench_util.h"
#include "common/executor.h"
#include "core/cast_validator.h"
#include "core/parallel_cast_validator.h"
#include "obs/trace.h"
#include "workload/po_generator.h"
#include "xml/tree.h"

namespace {

using namespace xmlreval;

// Executor options with only the worker count set.
common::Executor::Options Threads(size_t n) {
  common::Executor::Options options;
  options.threads = n;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out F: after the timed grid, run ONE traced 4-thread
  // validation and write its Chrome trace-event JSON to F. Kept out of
  // the timed loops so tracing overhead never touches the numbers; the
  // CI obs-smoke job checks every cast.task span in it is flow-linked to
  // its spawner.
  std::string trace_out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  bench::SchemaPair& pair = bench::Experiment2Pair();
  core::CastValidator serial(pair.relations.get());

  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware < 2) {
    std::fprintf(stderr,
                 "********************************************************\n"
                 "* WARNING: hardware_concurrency=%u — this machine has  *\n"
                 "* no real parallelism. Every speedup below is noise    *\n"
                 "* around 1.0x; do NOT quote these scaling numbers.     *\n"
                 "* Run on a multicore machine (tools/smoke/parallel.sh) *\n"
                 "* for meaningful curves.                               *\n"
                 "********************************************************\n",
                 hardware);
  }
  std::printf("parallel cast scaling (hardware_concurrency=%u)\n\n",
              hardware);
  std::printf("%-8s %-14s", "# items", "serial (us)");
  constexpr size_t kThreadGrid[] = {1, 2, 4, 8};
  for (size_t threads : kThreadGrid) {
    std::printf(" t=%zu (us)   x%-6s", threads, "");
  }
  std::printf("\n");

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("hardware_concurrency", double(hardware));

  for (size_t items : bench::kItemGrid) {
    workload::PoGeneratorOptions options;
    options.item_count = items;
    xml::Document doc = workload::GeneratePurchaseOrder(options);
    if (!doc.Bind(pair.alphabet).ok()) {
      std::fprintf(stderr, "bind failed\n");
      return 1;
    }
    const std::string tag = "_items_" + std::to_string(items);

    double serial_ns = bench::MedianNs([&] {
      core::ValidationReport report = serial.Validate(doc);
      if (!report.valid) {
        std::fprintf(stderr, "unexpected invalid document\n");
        std::exit(1);
      }
    });
    metrics.emplace_back("serial_ns" + tag, serial_ns);
    std::printf("%-8zu %-14.1f", items, serial_ns / 1000.0);

    for (size_t threads : kThreadGrid) {
      common::Executor executor(Threads(threads));
      core::ParallelCastValidator parallel(pair.relations.get(), &executor);
      double par_ns = bench::MedianNs([&] {
        core::ValidationReport report = parallel.Validate(doc);
        if (!report.valid) {
          std::fprintf(stderr, "unexpected invalid document\n");
          std::exit(1);
        }
      });
      double speedup = serial_ns / par_ns;
      metrics.emplace_back("par_t" + std::to_string(threads) + "_ns" + tag,
                           par_ns);
      metrics.emplace_back(
          "speedup_t" + std::to_string(threads) + tag, speedup);
      std::printf(" %-10.1f x%-6.2f", par_ns / 1000.0, speedup);
    }
    std::printf("\n");
  }

  // Spawn-threshold ablation: 4 workers, the 1000-item document.
  // Threshold 0 is the adaptive default — calibrated at first use from a
  // timed serial prefix walk; the row records the value it settled on.
  std::printf("\nspawn-threshold ablation (t=4, 1000 items)\n");
  {
    workload::PoGeneratorOptions options;
    options.item_count = 1000;
    xml::Document doc = workload::GeneratePurchaseOrder(options);
    if (!doc.Bind(pair.alphabet).ok()) return 1;
    metrics.emplace_back(
        "bytes_per_node",
        double(doc.MemoryUsage().total()) / double(doc.NodeCount()));
    for (size_t threshold : {size_t{0}, size_t{16}, size_t{64}, size_t{256}}) {
      common::Executor executor(Threads(4));
      core::ParallelCastValidator::Options parallel_options;
      parallel_options.spawn_threshold = threshold;
      core::ParallelCastValidator parallel(pair.relations.get(), &executor,
                                           parallel_options);
      core::ParallelCastValidator::RunStats stats;
      double ns =
          bench::MedianNs([&] { (void)parallel.Validate(doc, &stats); });
      const std::string key =
          threshold == 0 ? std::string("adaptive")
                         : std::to_string(threshold);
      metrics.emplace_back("thresh_" + key + "_ns_items_1000", ns);
      if (threshold == 0) {
        metrics.emplace_back("thresh_adaptive_calibrated",
                             double(stats.spawn_threshold));
        std::printf("  adaptive (calibrated %zu) %.1f us\n",
                    stats.spawn_threshold, ns / 1000.0);
      } else {
        std::printf("  threshold %-4zu %.1f us\n", threshold, ns / 1000.0);
      }
    }
  }

  if (!trace_out.empty()) {
#ifndef XMLREVAL_OBS_DISABLED
    workload::PoGeneratorOptions options;
    options.item_count = 1000;
    xml::Document doc = workload::GeneratePurchaseOrder(options);
    if (!doc.Bind(pair.alphabet).ok()) return 1;
    common::Executor executor(Threads(4));
    // Force eager donation so the traced run actually fans out (the
    // adaptive threshold can swallow a 1000-item doc whole on a fast
    // machine, leaving a single cast.task and nothing to flow-link).
    core::ParallelCastValidator::Options parallel_options;
    parallel_options.spawn_threshold = 64;
    core::ParallelCastValidator parallel(pair.relations.get(), &executor,
                                         parallel_options);
    obs::TraceSink::Global().Clear();
    obs::SetTraceEnabled(true);
    core::ValidationReport report = parallel.Validate(doc);
    obs::SetTraceEnabled(false);
    if (!report.valid) return 1;
    std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_out.c_str());
      return 1;
    }
    out << obs::TraceSink::Global().ExportChromeJson();
    std::printf("wrote %s (traced t=4 run, 1000 items)\n",
                trace_out.c_str());
#else
    std::fprintf(stderr,
                 "--trace-out ignored: XMLREVAL_OBS_DISABLED build\n");
#endif
  }

  bench::WriteBenchJson("BENCH_parallel.json", "parallel", metrics);
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}
