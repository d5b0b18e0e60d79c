// Cold vs. warm start: time-to-first-validation with the plan cache.
//
// A short-lived process pays parse + Glushkov + subset construction +
// R_sub/R_nondis fixpoints + analyzer compilation before it can serve its
// first cast. The plan cache amortizes all of it into one artifact that
// later processes mmap. This bench measures the full time-to-first-
// validation — construct a ValidationService, register the Experiment 2
// pair, cast one document — three ways:
//
//   no_cache  plan cache disabled (the pre-PR baseline)
//   cold      empty cache dir: compile + publish the artifact
//   warm      populated cache dir: mmap + adopt, zero compilation
//
// Emits BENCH_cold_start.json; tools/smoke/cold_start.sh gates on
// warm_speedup (cold_ns / warm_ns) >= 5.

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "service/validation_service.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"

namespace {

using namespace xmlreval;
using Clock = std::chrono::steady_clock;

service::ValidationService::PlanPairSpec Spec() {
  service::ValidationService::PlanPairSpec spec;
  spec.source_key = "source";
  spec.source_format = service::SchemaFormat::kXsd;
  spec.source_text = workload::kRelaxedQuantityXsd;
  spec.target_key = "target";
  spec.target_format = service::SchemaFormat::kXsd;
  spec.target_text = workload::kTargetXsd;
  return spec;
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/xmlreval_plan_bench_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::perror("mkdtemp");
    std::abort();
  }
  return dir;
}

void RemoveDirRecursive(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = readdir(d)) {
      if (std::strcmp(entry->d_name, ".") == 0 ||
          std::strcmp(entry->d_name, "..") == 0) {
        continue;
      }
      unlink((dir + "/" + entry->d_name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

// One complete time-to-first-validation: service up, pair registered
// (through the plan cache when `dir` is non-empty), one document cast.
// Returns elapsed ns; asserts the run went down the expected path.
uint64_t TimeToFirstValidation(const std::string& dir, bool expect_warm,
                               const xml::Document& doc,
                               service::PlanCache::Stats* stats_out) {
  auto start = Clock::now();
  service::ValidationService::Options options;
  options.plan_cache_dir = dir;
  service::ValidationService svc(options);
  auto handles = svc.RegisterPlanPair(Spec());
  if (!handles.ok()) {
    std::fprintf(stderr, "RegisterPlanPair: %s\n",
                 handles.status().ToString().c_str());
    std::abort();
  }
  if (!dir.empty() && handles->warm != expect_warm) {
    std::fprintf(stderr, "expected %s start, got %s\n",
                 expect_warm ? "warm" : "cold",
                 handles->warm ? "warm" : "cold");
    std::abort();
  }
  auto report = svc.Cast(handles->source, handles->target, doc);
  if (!report.ok() || !report->valid) {
    std::fprintf(stderr, "first cast failed\n");
    std::abort();
  }
  auto stop = Clock::now();
  if (stats_out != nullptr && svc.plan_cache() != nullptr) {
    *stats_out = svc.plan_cache()->GetStats();
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

}  // namespace

int main() {
  constexpr int kReps = 15;

  workload::PoGeneratorOptions doc_options;
  doc_options.item_count = 50;
  xml::Document doc = workload::GeneratePurchaseOrder(doc_options);

  // Baseline: no plan cache at all.
  std::vector<double> no_cache;
  for (int i = 0; i < kReps; ++i) {
    no_cache.push_back(TimeToFirstValidation("", false, doc, nullptr));
  }

  // Cold: every rep compiles into a FRESH empty dir (includes the save).
  std::vector<double> cold;
  for (int i = 0; i < kReps; ++i) {
    std::string dir = MakeTempDir();
    cold.push_back(TimeToFirstValidation(dir, false, doc, nullptr));
    RemoveDirRecursive(dir);
  }

  // Warm: one dir precompiled once, then every rep mmaps the artifact.
  std::string warm_dir = MakeTempDir();
  (void)TimeToFirstValidation(warm_dir, false, doc, nullptr);  // populate
  std::vector<double> warm;
  service::PlanCache::Stats warm_stats;
  for (int i = 0; i < kReps; ++i) {
    warm.push_back(TimeToFirstValidation(warm_dir, true, doc, &warm_stats));
  }

  // Size of the published artifact (one plan file in the warm dir).
  double plan_bytes = 0;
  if (DIR* d = opendir(warm_dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      std::string name = entry->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".xrp") == 0) {
        struct stat st;
        if (stat((warm_dir + "/" + name).c_str(), &st) == 0) {
          plan_bytes = double(st.st_size);
        }
      }
    }
    closedir(d);
  }
  RemoveDirRecursive(warm_dir);

  const double no_cache_ns = bench::Median(no_cache);
  const double cold_ns = bench::Median(cold);
  const double warm_ns = bench::Median(warm);
  const double warm_speedup = warm_ns > 0 ? cold_ns / warm_ns : 0;

  std::printf("Cold start: time-to-first-validation, Experiment 2 pair\n");
  std::printf("%-24s %12.1f us\n", "no cache", no_cache_ns / 1e3);
  std::printf("%-24s %12.1f us\n", "cold (compile+publish)", cold_ns / 1e3);
  std::printf("%-24s %12.1f us\n", "warm (mmap)", warm_ns / 1e3);
  std::printf("%-24s %12.2fx\n", "warm speedup vs cold", warm_speedup);
  std::printf("%-24s %12.0f bytes\n", "plan artifact", plan_bytes);

  bench::WriteBenchJson(
      "BENCH_cold_start.json", "bench_cold_start",
      {{"hardware_concurrency", double(std::thread::hardware_concurrency())},
       {"no_cache_ns", no_cache_ns},
       {"cold_ns", cold_ns},
       {"warm_ns", warm_ns},
       {"warm_speedup", warm_speedup},
       {"plan_bytes", plan_bytes},
       // Per warm rep the cache records exactly one hit and no
       // miss/corrupt/save; CI reconciles these against the metrics dump.
       {"warm_hits", double(warm_stats.hits)},
       {"warm_misses", double(warm_stats.misses)},
       {"warm_corrupt", double(warm_stats.corrupt)}});
  std::printf("\nwrote BENCH_cold_start.json\n");
  return 0;
}
