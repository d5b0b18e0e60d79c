// bench_e2e — the repository's end-to-end benchmark: bytes in, verdict out,
// through the public ValidationService API, one workload per process.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--smoke]
//
// Load is a closed loop from one client thread: the next request is sent
// when the previous one has returned. Only batch_mixed adds threads (its
// service's two batch workers). The service runs with default Options
// unless the workload says otherwise: no plan cache, intra_doc_threads = 0,
// metrics registry on and obs::TraceSink off.
//
// A run builds the inputs from --seed (untimed; their FNV-1a digest is
// printed), times a round of fresh service set-ups, computes every input's
// Definition-1 verdict, warms up for 2 s, then measures for --seconds
// (--smoke: 0.3 s each). Every verdict is checked against the oracle.
//
// On a shared machine, other tenants' load comes in phases of seconds to
// minutes that slow memory-bound code by up to 1.8x (seen on a 4-vCPU VM).
// So the end-to-end timings describe the quieter part of a run.
// Throughput, p50 and p99 are computed over the requests of the quieter
// half of the run's 250 ms slices, ranked by their median latency. Set-up
// time is timed in 21 rounds of 5 fresh services, one round before warm-up
// and the others spread over the measured window; the result is the lowest
// round median.
//
// With --trace 1 the measured window alternates 50 ms untraced and traced
// blocks: traced requests get a root `request` span with a child span per
// public call, and bare-layer sibling measurements run after the request
// span closes. The traced/untraced p50 ratio is the tracing overhead.
//
// stdout ends with two JSON lines: {"detail": {...}} (machine and build
// stamp, digest, sample counts) and the result
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics when
// untraced, per-layer metrics when traced. The exit code is 1 when any
// request failed, 2 on a usage error.

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace xmlreval::bench_e2e {
namespace {

// Long enough for the allocator's arenas and the CPU's caches and branch
// predictors to settle on every workload.
constexpr double kWarmupSeconds = 2;
constexpr double kSmokeSeconds = 0.3;
constexpr int kSetupRounds = 21;
constexpr int kSetupsPerRound = 5;
constexpr int64_t kSliceNs = 250'000'000;
constexpr int64_t kTraceBlockNs = 50'000'000;
constexpr size_t kMaxKeptSpans = 200'000;
constexpr size_t kMinSamples = 1000;

struct MetricDef {
  const char* name;
  const char* unit;
};

// p99 is measured too, but reported in `detail` only: on a shared machine
// its same-commit spread over ten runs exceeds the largest bound a
// regression gate may use (README.md, "Bounds").
constexpr MetricDef kEndToEnd[] = {
    {"throughput_rps", "req/s"},
    {"latency_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// The spans a request is made of, in the order of the "where the time goes"
// table; `request` is the root and its self time is the unattributed part.
constexpr const char* kRequestSpans[] = {
    "request",
    "xml.parse",
    "service.bind",
    "service.cast",
    "service.stream.start",
    "service.stream.feed",
    "service.stream.finish",
    "service.edit_stream",
    "service.batch.submit",
    "service.batch.wait",
};

constexpr MetricDef kPerLayer[] = {
    {"xml.parse.ns_per_byte", "ns/B"},
    {"xml.parse.self_frac", "ratio"},
    {"xml.doc.bytes_per_node", "B"},
    {"xml.editor.apply_ns_per_op", "ns"},
    {"service.bind.ns_per_node", "ns"},
    {"service.cast.ns_per_node", "ns"},
    {"service.cast.overhead_ns", "ns"},
    {"service.relations.get_ns", "ns"},
    {"service.relations.hit_frac", "ratio"},
    {"service.stream.start_ns", "ns"},
    {"service.stream.finish_ns", "ns"},
    {"service.edit.short_circuit_ns_per_op", "ns"},
    {"service.edit.fallback_ns_per_op", "ns"},
    {"service.batch.queue_wait_us_mean", "us"},
    {"service.batch.queue_wait_us_p99", "us"},
    {"service.batch.item_service_us_mean", "us"},
    {"service.batch.worker_busy_frac", "ratio"},
    {"service.batch.stream_routed_frac", "ratio"},
    {"core.cast.ns_per_node_visited", "ns"},
    {"core.cast.visited_frac", "ratio"},
    {"core.cast.dfa_steps_per_doc", "count"},
    {"core.cast.subtrees_skipped_per_doc", "count"},
    {"core.cast.disjoint_rejects_per_doc", "count"},
    {"core.cast.immediate_decisions_per_doc", "count"},
    {"core.mod.ns_per_op", "ns"},
    {"stream.feed.wide_ns_per_byte", "ns/B"},
    {"stream.feed.deep_ns_per_byte", "ns/B"},
    {"stream.skip.bytes_frac", "ratio"},
    {"stream.max_live_frames", "count"},
    {"stream.peak_carry_bytes", "B"},
    {"analysis.short_circuit_frac", "ratio"},
    {"analysis.ops_unknown_frac", "ratio"},
    {"setup.register_us", "us"},
    {"setup.fixpoint_us", "us"},
    {"setup.analyzer_us", "us"},
    {"bench.unattributed_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
    {"self_us.request", "us"},
    {"self_us.xml.parse", "us"},
    {"self_us.service.bind", "us"},
    {"self_us.service.cast", "us"},
    {"self_us.service.stream.start", "us"},
    {"self_us.service.stream.feed", "us"},
    {"self_us.service.stream.finish", "us"},
    {"self_us.service.edit_stream", "us"},
    {"self_us.service.batch.submit", "us"},
    {"self_us.service.batch.wait", "us"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  double warmup = kWarmupSeconds;
  bool trace = false;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--smoke]\n"
               "workloads:");
  for (const char* name : kWorkloadNames) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->warmup = kSmokeSeconds;
      args->seconds = kSmokeSeconds;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linearly interpolated q-quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

/// Peak resident set of this process image in MiB: VmHWM, which execve
/// resets, unlike getrusage's ru_maxrss, which keeps the launching
/// process's peak (a Python launcher's RSS would hide a smaller benchmark's).
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

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

/// Machine and build stamp. `comparable` is false unless this is an
/// optimized NDEBUG build: numbers from other builds say nothing about the
/// code's speed.
std::string Stamp(const ValidationService::Options& options, bool* comparable) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef XMLREVAL_OBS_DISABLED
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
  *comparable = ndebug && optimized;
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"compiler\": " + JsonString(__VERSION__);
  out += ", \"build_type\": " + JsonString(XMLREVAL_E2E_BUILD_TYPE);
  out += std::string(", \"ndebug\": ") + flag(ndebug);
  out += std::string(", \"optimized\": ") + flag(optimized);
  out += std::string(", \"comparable\": ") + flag(*comparable);
  out += std::string(", \"obs_compiled\": ") + flag(obs_compiled);
  out += std::string(", \"obs_enabled\": ") + flag(obs::Enabled());
  out += std::string(", \"trace_sink\": ") + flag(obs::TraceEnabled());
  out += std::string(", \"plan_cache\": ") +
         flag(!options.plan_cache_dir.empty());
  out += ", \"intra_doc_threads\": " +
         std::to_string(options.intra_doc_threads);
  out += ", \"batch_threads\": " + std::to_string(options.batch_threads);
  out += ", \"client_threads\": 1}";
  return out;
}

struct SetupTiming {
  double total_s = 0;
  double register_us = 0;
  double fixpoint_us = 0;
  double analyzer_us = 0;
};

/// One fresh service: construction, schema registration, and the first
/// cache().Get of every pair (plus the first GetAnalyzer when the workload
/// edits). Input generation is not part of it.
std::unique_ptr<ValidationService> SetUp(
    const ValidationService::Options& options,
    const std::vector<SchemaSpec>& schemas,
    const std::vector<std::pair<size_t, size_t>>& pairs, bool analyzer,
    std::vector<SchemaHandle>* handles, SetupTiming* timing) {
  const int64_t t0 = NowNs();
  auto service = std::make_unique<ValidationService>(options);
  const int64_t t1 = NowNs();
  handles->clear();
  for (const SchemaSpec& spec : schemas) {
    Result<SchemaHandle> handle = [&]() -> Result<SchemaHandle> {
      if (!spec.dtd) {
        return service->registry().RegisterXsd(spec.key, spec.text);
      }
      schema::DtdParseOptions dtd;
      dtd.roots = spec.roots;
      return service->registry().RegisterDtd(spec.key, spec.text, dtd);
    }();
    if (!handle.ok()) {
      Die("register " + std::string(spec.key) + ": " +
          handle.status().ToString());
    }
    handles->push_back(*handle);
  }
  const int64_t t2 = NowNs();
  for (const auto& [s, t] : pairs) {
    auto relations = service->cache().Get((*handles)[s], (*handles)[t]);
    if (!relations.ok()) Die("relations: " + relations.status().ToString());
  }
  const int64_t t3 = NowNs();
  if (analyzer) {
    auto compiled = service->cache().GetAnalyzer((*handles)[pairs[0].first],
                                                 (*handles)[pairs[0].second]);
    if (!compiled.ok()) Die("analyzer: " + compiled.status().ToString());
  }
  const int64_t t4 = NowNs();
  *timing = {Seconds(t4 - t0), (t2 - t1) / 1e3, (t3 - t2) / 1e3,
             analyzer ? (t4 - t3) / 1e3 : 0.0};
  return service;
}

/// The requests of one kind of block: every measured request when
/// untraced, or the traced (or untraced) blocks of a traced run.
struct Window {
  std::vector<int64_t> start_ns;
  std::vector<double> latency_ns;
  uint64_t items = 0;
  double request_ns = 0;
};

/// Runs `fn` to completion on a thread with a 512 MiB stack (reserved, not
/// committed). Prepare needs it: the core::FullValidator oracle recurses
/// once per tree level, and stream_cast's deep document is 20,000 levels —
/// about 5 MiB in an optimized build, too close to the 8 MiB default.
void OnLargeStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, size_t{512} << 20);
  pthread_t thread;
  void* (*trampoline)(void*) = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  const int created = pthread_create(&thread, &attr, trampoline,
                                     const_cast<std::function<void()>*>(&fn));
  pthread_attr_destroy(&attr);
  if (created != 0) Die("cannot start the oracle thread");
  pthread_join(thread, nullptr);
}

/// Throughput, p50 and p99 over the quieter half of a window: the window is
/// cut into kSliceNs slices by request start time (from `origin_ns`, at or
/// before the first start), and only the requests of slices whose median
/// latency is at or below the median of those medians count. A slowdown of the shared machine that covers less than half of
/// the run moves no reported value.
struct QuietStats {
  size_t slices = 0;
  size_t samples = 0;
  double throughput_rps = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

QuietStats Quiet(const Window& window, int64_t origin_ns) {
  const size_t n = window.latency_ns.size();
  if (n == 0) return {};
  std::vector<std::vector<double>> slices;
  for (size_t i = 0; i < n; ++i) {
    const size_t k =
        static_cast<size_t>((window.start_ns[i] - origin_ns) / kSliceNs);
    if (k >= slices.size()) slices.resize(k + 1);
    slices[k].push_back(window.latency_ns[i]);
  }
  std::erase_if(slices, [](const std::vector<double>& s) { return s.empty(); });
  std::vector<double> medians;
  for (const std::vector<double>& slice : slices) {
    medians.push_back(Quantile(slice, 0.5));
  }
  const double cut = Quantile(medians, 0.5);
  std::vector<double> kept;
  for (size_t k = 0; k < slices.size(); ++k) {
    if (medians[k] <= cut) {
      kept.insert(kept.end(), slices[k].begin(), slices[k].end());
    }
  }
  double busy_ns = 0;
  for (double latency : kept) busy_ns += latency;
  const double items_per_request =
      Ratio(static_cast<double>(window.items), static_cast<double>(n));
  return {slices.size(), kept.size(),
          Ratio(items_per_request * static_cast<double>(kept.size()),
                busy_ns / 1e9),
          Quantile(kept, 0.50), Quantile(kept, 0.99)};
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, std::string>>& units,
    const LayerValues& values) {
  std::string out = "{";
  for (size_t i = 0; i < units.size(); ++i) {
    const auto& [name, unit] = units[i];
    if (i > 0) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(values.at(name)) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) return Usage();
  const int64_t run_start = NowNs();

  const ValidationService::Options options = workload->ServiceOptions();
  bool comparable = false;
  const std::string stamp = Stamp(options, &comparable);
  if (!comparable) {
    std::fprintf(stderr,
                 "bench_e2e: WARNING: not an optimized NDEBUG build; the "
                 "numbers are not comparable\n");
  }

  // Inputs, digested with the schema texts they are checked against.
  Fnv1a digest;
  const std::vector<SchemaSpec> schemas = workload->Schemas();
  const std::vector<std::pair<size_t, size_t>> pairs = workload->Pairs();
  for (const SchemaSpec& spec : schemas) digest.Add(spec.text);
  workload->Generate(args.seed, &digest);
  const int64_t generated = NowNs();

  // Set-up is timed in kSetupRounds rounds: one before warm-up, whose last
  // service serves the requests, and the others spread evenly over the
  // measured window (between requests, outside their timers), so a
  // slowdown of the shared machine that covers part of the run leaves some
  // rounds untouched.
  std::vector<SetupTiming> setups;
  auto time_setups = [&](std::vector<SchemaHandle>* handles) {
    std::unique_ptr<ValidationService> last;
    for (int k = 0; k < kSetupsPerRound; ++k) {
      last.reset();
      setups.emplace_back();
      last = SetUp(options, schemas, pairs, workload->UsesAnalyzer(), handles,
                   &setups.back());
    }
    return last;
  };
  // The lowest round median: the set-up time of the quietest round.
  auto quietest_setup = [&](double SetupTiming::*field) {
    double lowest = 0;
    for (size_t r = 0; r + kSetupsPerRound <= setups.size();
         r += kSetupsPerRound) {
      std::vector<double> round;
      for (size_t k = r; k < r + kSetupsPerRound; ++k) {
        round.push_back(setups[k].*field);
      }
      const double median = Quantile(round, 0.5);
      lowest = r == 0 ? median : std::min(lowest, median);
    }
    return lowest;
  };
  std::vector<SchemaHandle> handles;
  std::unique_ptr<ValidationService> service = time_setups(&handles);
  OnLargeStack([&] { workload->Prepare(service.get(), handles); });
  const int64_t prepared = NowNs();

  Tracer tracer(kMaxKeptSpans);
  uint64_t request = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t relations_ns = 0;
  uint64_t relations_gets = 0;
  auto run_one = [&](bool traced, Window* window) {
    Tracer* t = traced ? &tracer : nullptr;
    if (t != nullptr) tracer.set_request_id(request + 1);
    workload->Stage(request, t);
    const int64_t start = NowNs();
    Outcome outcome;
    {
      Span span(t, "request");
      outcome = workload->Run(request, t);
    }
    const int64_t latency = NowNs() - start;
    if (t != nullptr) {
      workload->Siblings(request, t);
      const auto& [s, tg] = pairs[request % pairs.size()];
      Span get(t, "sibling.relations_get");
      const bool hit = service->cache().Get(handles[s], handles[tg]).ok();
      relations_ns += get.Close();
      relations_gets += hit ? 1 : 0;
      tracer.set_request_id(0);
    }
    attempted += outcome.items;
    failed += outcome.failed;
    if (window != nullptr) {
      window->start_ns.push_back(start);
      window->latency_ns.push_back(static_cast<double>(latency));
      window->items += outcome.items;
      window->request_ns += static_cast<double>(latency);
    }
    ++request;
  };

  const int64_t warm_end = NowNs() + static_cast<int64_t>(args.warmup * 1e9);
  do {
    run_one(false, nullptr);
  } while (NowNs() < warm_end);

  workload->OnMeasureStart();
  const service::RelationsCache::Stats cache_before = service->cache().stats();
  Window untraced;
  Window traced;
  const int64_t measure_start = NowNs();
  const int64_t measure_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<SchemaHandle> spare_handles;
  int rounds = 1;
  for (int64_t now = measure_start;
       now < measure_start + measure_ns || untraced.latency_ns.empty() ||
       (args.trace && traced.latency_ns.empty());
       now = NowNs()) {
    if (rounds < kSetupRounds - 1 &&
        now >= measure_start + rounds * measure_ns / (kSetupRounds - 1)) {
      time_setups(&spare_handles);
      ++rounds;
      continue;
    }
    const bool in_traced_block =
        args.trace && ((now - measure_start) / kTraceBlockNs) % 2 == 1;
    run_one(in_traced_block, in_traced_block ? &traced : &untraced);
  }
  const int64_t measured = NowNs();
  while (rounds++ < kSetupRounds) time_setups(&spare_handles);

  std::vector<std::pair<std::string, std::string>> units;
  LayerValues values;
  const std::vector<double>& latencies = untraced.latency_ns;
  const QuietStats quiet = Quiet(untraced, measure_start);
  if (!args.trace) {
    for (const MetricDef& m : kEndToEnd) units.emplace_back(m.name, m.unit);
    values["throughput_rps"] = quiet.throughput_rps;
    values["latency_p50_us"] = quiet.p50_ns / 1e3;
    values["setup_s"] = quietest_setup(&SetupTiming::total_s);
    values["peak_rss_mb"] = PeakRssMib();
  } else {
    for (const MetricDef& m : kPerLayer) {
      units.emplace_back(m.name, m.unit);
      values[m.name] = 0;
    }
    MeasuredWindow window{&tracer, untraced.request_ns + traced.request_ns};
    workload->Layers(window, &values);
    const Tracer::Totals root = tracer.Get("request");
    const double traced_requests = static_cast<double>(root.count);
    for (const char* span : kRequestSpans) {
      values[std::string("self_us.") + span] =
          Ratio(static_cast<double>(tracer.Get(span).self_ns) / 1e3,
                traced_requests);
    }
    values["xml.parse.self_frac"] =
        Ratio(static_cast<double>(tracer.Get("xml.parse").self_ns),
              static_cast<double>(root.total_ns));
    const service::RelationsCache::Stats cache_after = service->cache().stats();
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits) -
        static_cast<double>(relations_gets);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before.misses);
    values["service.relations.get_ns"] =
        Ratio(static_cast<double>(relations_ns),
              static_cast<double>(relations_gets));
    values["service.relations.hit_frac"] = Ratio(hits, hits + misses);
    values["setup.register_us"] = quietest_setup(&SetupTiming::register_us);
    values["setup.fixpoint_us"] = quietest_setup(&SetupTiming::fixpoint_us);
    values["setup.analyzer_us"] = quietest_setup(&SetupTiming::analyzer_us);
    values["bench.unattributed_frac"] = Ratio(
        static_cast<double>(root.self_ns), static_cast<double>(root.total_ns));
    values["bench.trace_overhead_frac"] =
        Ratio(Quantile(traced.latency_ns, 0.5), Quantile(latencies, 0.5)) - 1;
    for (const auto& [name, value] : values) {
      bool known = false;
      for (const MetricDef& m : kPerLayer) known |= name == m.name;
      if (!known) Die("unlisted per-layer metric " + name);
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out, std::ios::binary | std::ios::trunc);
      out << tracer.ChromeJson();
      if (!out) Die("cannot write " + args.trace_out);
    }
  }

  if (!args.trace && quiet.samples < kMinSamples) {
    std::fprintf(stderr,
                 "bench_e2e: WARNING: %zu quiet-half samples; p99 needs %zu\n",
                 quiet.samples, kMinSamples);
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest.value()));
  std::string detail = "{\"detail\": {";
  detail += "\"workload\": " + JsonString(args.workload);
  detail += ", \"seed\": " + std::to_string(args.seed);
  detail += std::string(", \"trace\": ") + (args.trace ? "1" : "0");
  detail += ", \"input_digest\": " + JsonString(digest_hex);
  detail += ", \"samples\": " + std::to_string(latencies.size());
  detail += ", \"slices\": " + std::to_string(quiet.slices);
  detail += ", \"quiet_samples\": " + std::to_string(quiet.samples);
  detail += ", \"latency_p99_us\": " + JsonNumber(quiet.p99_ns / 1e3);
  detail += ", \"traced_samples\": " + std::to_string(traced.latency_ns.size());
  detail += ", \"items\": " + std::to_string(untraced.items + traced.items);
  detail += ", \"attempted\": " + std::to_string(attempted);
  detail += ", \"failed\": " + std::to_string(failed);
  detail += ", \"failed_frac\": " +
            JsonNumber(Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)));
  detail += ", \"setups\": " + std::to_string(setups.size());
  detail += ", \"generate_s\": " + JsonNumber(Seconds(generated - run_start));
  detail += ", \"setup_and_oracle_s\": " +
            JsonNumber(Seconds(prepared - generated));
  detail += ", \"warmup_s\": " + JsonNumber(Seconds(measure_start - prepared));
  detail += ", \"measure_s\": " + JsonNumber(Seconds(measured - measure_start));
  detail += ", \"stamp\": " + stamp + "}}";

  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(units, values).c_str());
  std::fflush(stdout);
  workload.reset();  // its sessions and documents must not outlive `service`
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xmlreval::bench_e2e

int main(int argc, char** argv) {
  return xmlreval::bench_e2e::Main(argc, argv);
}
