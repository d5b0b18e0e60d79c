// ValidationService — the serving façade over the revalidation core.
//
// One object wires together the pieces a production deployment of the
// paper's §2 broker needs: a SchemaRegistry (parse each schema once), a
// RelationsCache (compute each (S, S') fixpoint once, share it across all
// threads), and dispatch to the existing validators. Callers hold
// SchemaHandles and documents; the service resolves everything else.
//
//   service.registry().RegisterDtd("orders", dtd_text);
//   auto report = service.Cast(producer, consumer, doc);
//
// Five entry points book requests — Validate, Cast, CastWithMods,
// SubmitEditStream and CastStreamSession::Finish — and all five take one
// request path: a request scope, an svc.<op> span with src (where the op
// has a source), tgt and nodes args, the call, and one Record. They run
// on the caller's thread and are safe to call from any number of threads
// concurrently — including concurrently with Register* calls, which the
// registry's reader/writer lock serializes against the alphabet reads.
//
// SubmitBatch is the throughput path: text-in/verdict-out items fanned out
// over a fixed-size work-stealing executor behind a bounded injection
// queue (backpressure, not unbounded buffering), returning a future of
// per-item results in input order. Orthogonally, Options::intra_doc_threads
// routes single large casts through ParallelCastValidator on a second
// executor — latency for one big document instead of throughput across
// many (the two compose: a batch of large documents uses both).
//
// Observability: every service owns a private obs::MetricsRegistry
// (metrics()) so instances — and tests — never share counters. Published
// there, all under one consistent snapshot path:
//
//   xmlreval_requests_total                any request (sync + batch item)
//   xmlreval_op_requests_total{op=...}     dispatched per op, ok or error
//   xmlreval_ops_ok_total{op=...}          per op, status-OK only
//   xmlreval_verdicts_total{verdict=...}   valid / invalid / error
//   xmlreval_request_latency_us{op=...}    per-op latency histogram
//   xmlreval_pair_request_latency_us{pair} per (S, S') request latency
//   xmlreval_batch_queue_wait_us           enqueue → worker pickup
//   xmlreval_batch_service_us              worker parse+bind+validate
//   xmlreval_batch_inflight                items currently in the pipeline
//   xmlreval_executor_queue_depth{executor} HIGH-WATER queue depth since
//                                          the previous snapshot,
//                                          batch / intra_doc
//   xmlreval_trace_buffered_events         TraceSink ring fill
//   xmlreval_trace_dropped_events          ring overwrites since Clear
//   xmlreval_trace_tail_dropped_events     events tail sampling discarded
//   xmlreval_trace_staged_events           events staged, unresolved
//   xmlreval_flight_ring_occupancy{thread} flight-recorder ring fill
//   xmlreval_edit_ops_total{verdict=...}   stream ops after composition
//   xmlreval_edit_streams_total{path=...}  short_circuit_safe / _fatal /
//                                          fallback
//   xmlreval_stream_bytes_total            bytes fed to streaming casts
//   xmlreval_stream_bytes_skipped_total    bytes the skip scanner bypassed
//   xmlreval_stream_{bytes_skipped,max_live_frames,peak_carry_bytes}
//                                          last streaming request's gauges
//   xmlreval_{nodes_visited,dfa_steps,subtrees_skipped}_total
//
// plus the RelationsCache's metrics (same registry). Counter updates for
// one request happen under a shared lock; counters() takes the exclusive
// side, so a snapshot is internally consistent: requests == valid +
// invalid + errors holds at every snapshot, and each op's latency
// histogram count equals its op_requests counter (while the runtime obs
// switch is on — histograms pause when it is off, counters never do).
// Batch items that fail before dispatch (malformed XML, bind failure)
// count as requests + errors but belong to no op.

#ifndef XMLREVAL_SERVICE_VALIDATION_SERVICE_H_
#define XMLREVAL_SERVICE_VALIDATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stream_session.h"
#include "analysis/update_analyzer.h"
#include "common/executor.h"
#include "common/result.h"
#include "core/cast_validator.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "core/parallel_cast_validator.h"
#include "core/report.h"
#include "core/streaming_validator.h"
#include "obs/metrics.h"
#include "service/plan_cache.h"
#include "service/relations_cache.h"
#include "service/schema_registry.h"
#include "xml/editor.h"
#include "xml/tree.h"

namespace xmlreval::service {

class ValidationService {
 public:
  struct Options {
    RelationsCache::Options cache;
    core::CastValidator::Options cast;
    /// Batch pipeline sizing; the executor is created lazily on the first
    /// SubmitBatch. threads == 0 means hardware concurrency.
    size_t batch_threads = 0;
    size_t batch_queue_capacity = 256;
    /// Intra-document parallelism for Cast: 0 disables it (every cast runs
    /// the serial engine); N > 0 creates a lazily-started N-worker
    /// executor and routes casts of documents with at least
    /// `intra_doc_min_nodes` nodes through ParallelCastValidator. Small
    /// documents stay serial — fan-out overhead would swamp them.
    size_t intra_doc_threads = 0;
    size_t intra_doc_min_nodes = 4096;
    /// Frontier size at which a cast task donates half its pending work
    /// (ParallelCastValidator::Options::spawn_threshold). 0 = adaptive:
    /// calibrated from a timed serial prefix walk at first use.
    size_t intra_doc_spawn_threshold = 0;
    /// Enforce the §3.2 precondition on Cast: full-validate against the
    /// SOURCE schema first; a source-invalid document fails with
    /// kFailedPrecondition instead of an arbitrary verdict. Off by default
    /// — the broker regime trusts producers, and the check costs a full
    /// traversal, exactly what casting is meant to avoid.
    bool check_cast_precondition = false;
    /// Directory of persistent compiled cast plans (service/plan_cache.h).
    /// Empty = no plan cache: RegisterPlanPair always compiles cold and
    /// never touches disk.
    std::string plan_cache_dir;
    /// Batch kCast items whose XML text is at least this many bytes are
    /// served by the incremental streaming cast engine instead of the DOM
    /// pipeline: no parse, no bind, no tree — live memory is O(depth), and
    /// subsumed subtrees are byte-skipped without tokenization. 0 disables
    /// the routing (every batch item builds a DOM). The sync CastStream /
    /// StartCastStream entry points always stream regardless.
    size_t stream_threshold_bytes = 0;
  };

  /// Service-level request counters (cache internals live in
  /// RelationsCache::Stats; these count traffic). Produced by counters()
  /// as one internally consistent snapshot:
  /// requests == valid + invalid + errors always holds.
  struct Counters {
    uint64_t requests = 0;  // sync + batch items, all ops
    uint64_t valid = 0;
    uint64_t invalid = 0;
    uint64_t errors = 0;  // non-OK Status (bad handle, parse failure, ...)
    uint64_t full_validations = 0;
    uint64_t casts = 0;
    uint64_t casts_with_mods = 0;
    uint64_t batches = 0;
    uint64_t batch_items = 0;
    uint64_t nodes_visited = 0;  // summed over all successful reports
    // Edit-stream path (SubmitEditStream / AnalyzeUpdate).
    uint64_t edit_streams = 0;             // OK SubmitEditStream calls
    uint64_t streams_short_circuited = 0;  // decided without tree work
    uint64_t edit_ops_safe = 0;            // per-op verdicts, post-compose
    uint64_t edit_ops_fatal = 0;
    uint64_t edit_ops_unknown = 0;
    // Streaming cast path (CastStream / StartCastStream / batch routing).
    uint64_t cast_streams = 0;          // OK streaming cast requests
    uint64_t stream_bytes = 0;          // bytes fed to streaming sessions
    uint64_t stream_bytes_skipped = 0;  // bytes the skip scanner bypassed
  };

  explicit ValidationService(const Options& options);
  ValidationService() : ValidationService(Options{}) {}
  ValidationService(const ValidationService&) = delete;
  ValidationService& operator=(const ValidationService&) = delete;
  ~ValidationService();

  SchemaRegistry& registry() { return registry_; }
  const SchemaRegistry& registry() const { return registry_; }
  RelationsCache& cache() { return cache_; }
  const RelationsCache& cache() const { return cache_; }

  /// This service's metric namespace: its request counters/histograms and
  /// its cache's metrics. Snapshot with metrics().Snapshot().
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Parses and registers one schema text under `key` through the
  /// registry front end `format` names (no plan involvement).
  Result<SchemaHandle> RegisterText(const std::string& key,
                                    SchemaFormat format,
                                    const std::string& text);

  /// Binds `doc` to the registry's shared Alphabet (find-only, under the
  /// registry's read guard) so every subsequent Validate/Cast on it takes
  /// the string-free symbol path. Callers that build or parse documents
  /// themselves should bind once before the first request; ProcessItem
  /// does this automatically for batch items. Out-of-Σ labels degrade to
  /// kUnboundSymbol and are reported by the validators as usual.
  Status BindDocument(xml::Document* doc) const;

  /// Full validation (Definition 1) against a registered schema.
  Result<core::ValidationReport> Validate(SchemaHandle schema,
                                          const xml::Document& doc);

  /// Schema-cast validation (§3.2): `doc` is assumed valid under `source`
  /// (see Options::check_cast_precondition); decides validity under
  /// `target` using the cached relations.
  Result<core::ValidationReport> Cast(SchemaHandle source, SchemaHandle target,
                                      const xml::Document& doc);

  // ------------------------------------------------------------------
  // Streaming cast (no DOM)
  // ------------------------------------------------------------------

  /// A service-managed incremental cast: obtained from StartCastStream,
  /// fed chunks as they arrive, finished for the booked report. The
  /// session pins the pair's relations and holds the registry's read
  /// guard for its lifetime, so it must not outlive the service and
  /// should not be kept open across schema registrations. Use from one
  /// thread at a time.
  class CastStreamSession {
   public:
    ~CastStreamSession();
    CastStreamSession(const CastStreamSession&) = delete;
    CastStreamSession& operator=(const CastStreamSession&) = delete;

    /// Consumes the next chunk. Returns OK while the verdict is open;
    /// once decided, the deciding status (callers may stop feeding).
    Status Feed(std::string_view chunk);

    /// Ends the input, books the request into the service's counters and
    /// histograms (exactly once), and returns the report — or the parse
    /// error for bytes that were not well-formed XML. Idempotent.
    Result<core::ValidationReport> Finish();

    /// The engine's full report (byte accounting, live-frame peak);
    /// meaningful after Finish.
    const core::StreamingReport& streaming_report() const;

   private:
    friend class ValidationService;
    struct State;
    explicit CastStreamSession(std::unique_ptr<State> state);
    std::unique_ptr<State> state_;
  };

  /// Opens a streaming cast session for a registered (source, target)
  /// pair. Fails fast on bad handles or relation-computation errors
  /// (booked as a cast_stream error).
  Result<std::unique_ptr<CastStreamSession>> StartCastStream(
      SchemaHandle source, SchemaHandle target);

  /// One-shot convenience over StartCastStream: streams `text` through
  /// the incremental engine (still never builds a DOM) and returns the
  /// booked report.
  Result<core::ValidationReport> CastStream(SchemaHandle source,
                                            SchemaHandle target,
                                            std::string_view text);

  /// Cast with modifications (§3.3) over a Δ-encoded document.
  Result<core::ValidationReport> CastWithMods(
      SchemaHandle source, SchemaHandle target, const xml::Document& doc,
      const xml::ModificationIndex& mods);

  // ------------------------------------------------------------------
  // Static update-safety analysis (src/analysis/)
  // ------------------------------------------------------------------

  /// Classifies ONE prospective operation against the pre-op state of
  /// `doc` using the pair's cached UpdateAnalyzer — no tree mutation, no
  /// validation. The document must be source-valid (kSafe additionally
  /// requires the pair's root subsumption; the analyzer degrades to
  /// kUnknown when it does not hold).
  Result<analysis::OpVerdict> AnalyzeUpdate(SchemaHandle source,
                                            SchemaHandle target,
                                            const xml::Document& doc,
                                            const xml::EditOp& op);

  struct EditStreamResult {
    /// Composed static verdict with per-op counts.
    analysis::StreamVerdict stream;
    /// True when the stream was decided statically — `report` was
    /// synthesized from the verdict without touching the tree.
    bool short_circuited = false;
    /// The final verdict; from ModValidator when not short-circuited.
    core::ValidationReport report;
  };

  /// Applies `ops` to `doc` through an analyzer-instrumented session and
  /// decides target validity of the edited document: statically when the
  /// composed verdict is safe or fatal (zero tree work), via ModValidator
  /// over the sealed modification index otherwise. The edits are committed
  /// before returning either way — mirroring the editor contract, `doc` is
  /// left in its post-edit state. Precondition: `doc` is valid under
  /// `source` before the first operation.
  Result<EditStreamResult> SubmitEditStream(SchemaHandle source,
                                            SchemaHandle target,
                                            xml::Document* doc,
                                            const std::vector<xml::EditOp>& ops);

  // ------------------------------------------------------------------
  // Persistent compiled cast plans (warm start)
  // ------------------------------------------------------------------

  /// One (source, target) cast pair by schema text, the unit the plan
  /// cache stores. Texts are parsed with default parser options; the plan
  /// key covers the texts + formats, so any byte change recompiles.
  struct PlanPairSpec {
    std::string source_key;
    SchemaFormat source_format = SchemaFormat::kXsd;
    std::string source_text;
    std::string target_key;
    SchemaFormat target_format = SchemaFormat::kXsd;
    std::string target_text;
  };

  struct PlanPairHandles {
    SchemaHandle source = kInvalidSchemaHandle;
    SchemaHandle target = kInvalidSchemaHandle;
    /// True when the pair was loaded from a plan artifact (warm start);
    /// false on a cold compile, a disabled cache, or a bypass.
    bool warm = false;
  };

  /// Registers a cast pair, warm-starting from the plan cache when
  /// possible:
  ///   * cache disabled → parse + fixpoint compile, as if by RegisterXsd /
  ///     RegisterDtd + Cast-on-first-use.
  ///   * registry already holds schemas → plan alphabets cannot be adopted;
  ///     counts a bypass and compiles cold.
  ///   * cache hit → mmap the artifact, adopt its alphabet, register both
  ///     schemas, and seed the relations cache — no parse, no fixpoint.
  ///   * cache miss/corrupt → take the per-plan flock (single-flight across
  ///     processes AND threads), re-probe, then compile cold, eagerly
  ///     compute relations + analyzer, and publish the artifact.
  /// Either way the returned handles are ready for Cast/CastWithMods.
  Result<PlanPairHandles> RegisterPlanPair(const PlanPairSpec& spec);

  /// The plan cache, or nullptr when Options::plan_cache_dir is empty.
  PlanCache* plan_cache() { return plan_cache_.get(); }

  // ------------------------------------------------------------------
  // Batch pipeline
  // ------------------------------------------------------------------

  enum class BatchOp : uint8_t {
    kValidate,  // full validation against `target`
    kCast,      // schema cast from `source` to `target`
  };

  /// One text-in/verdict-out unit of batch work.
  struct BatchItem {
    BatchOp op = BatchOp::kCast;
    SchemaHandle source = kInvalidSchemaHandle;  // ignored for kValidate
    SchemaHandle target = kInvalidSchemaHandle;
    std::string xml_text;
  };

  struct BatchItemResult {
    Status status;                  // non-OK: parse error, bad handle, ...
    core::ValidationReport report;  // meaningful only when status.ok()
  };

  /// Fans the batch out over the worker pool and returns a future of the
  /// per-item results, in input order. Blocks only while the bounded work
  /// queue is full. Thread-safe; batches from concurrent callers interleave
  /// on the same pool.
  std::future<std::vector<BatchItemResult>> SubmitBatch(
      std::vector<BatchItem> items);

  Counters counters() const;

 private:
  struct BatchState;
  /// One request on its way from its entry point through Serve to Record.
  struct Booking;

  /// Cached metric handles for one operation kind.
  struct OpMetrics {
    obs::Counter* dispatched;   // op_requests_total{op}
    obs::Counter* ok;           // ops_ok_total{op}
    obs::Histogram* latency;    // request_latency_us{op}
  };

  using Clock = std::chrono::steady_clock;

  /// Cached per-(S, S') pair handles: the latency histogram plus the
  /// human-readable pair label exemplars carry.
  struct PairEntry {
    obs::Histogram* latency;
    std::string label;  // "key.vN->key.vM"
  };

  /// Starts `op`'s booking: the pair (where there is a source), the clock.
  Booking Open(const OpMetrics& op, SchemaHandle source, SchemaHandle target,
               const xml::Document* doc);
  /// The request path of every booking entry point: the request scope and
  /// the `span` (a literal) around `call(&booking)`, the span's src/tgt/
  /// nodes args, then Record. Returns `call`'s result.
  template <typename Call>
  auto Serve(const char* span, Booking booking, Call&& call);
  /// Books one finished request (null `report`: it failed) in one
  /// shared-lock section, then settles its trace: keeps failed and
  /// tail-latency requests, pins their exemplars to the op + pair
  /// histograms, and hints non-owned scopes upward.
  void Record(const Booking& booking, const core::ValidationReport* report,
              obs::RequestScope* scope);
  BatchItemResult ProcessItem(const BatchItem& item);
  /// The cold path of RegisterPlanPair: parse both texts, run the
  /// relations fixpoint + analyzer eagerly, and — when `save_key` is
  /// non-null — publish the compiled plan to the cache.
  Result<PlanPairHandles> ColdCompilePair(const PlanPairSpec& spec,
                                          const PlanKey* save_key);
  /// The warm path: adopt the plan's alphabet, register its schemas, and
  /// seed the relations cache. Falls back to a cold compile (without
  /// re-saving) if the alphabet can no longer be adopted.
  Result<PlanPairHandles> AdoptPlan(const PlanPairSpec& spec,
                                    PlanBundle bundle);
  /// A request that failed before reaching any validator (batch parse or
  /// bind failure): counts as a request + error, no op.
  void RecordRejected();
  /// Latency histogram + label for an (S, S') pair; created on first use,
  /// cached thereafter (pointer stable for the service's lifetime).
  const PairEntry* PairLatency(SchemaHandle source, SchemaHandle target);
  /// OnSnapshot hook: publishes trace-sink health, flight-recorder ring
  /// occupancy, and the per-interval executor queue-depth high-water
  /// marks, so every exposition interval reads them fresh.
  void PublishObsHealth();
  /// Lazily-started executors. The batch executor fans SubmitBatch items
  /// out across documents; the intra-doc executor fans ONE document's cast
  /// across subtrees. They are separate pools so a saturated batch can
  /// never starve intra-document tasks into a deadlock (and vice versa).
  common::Executor& BatchExecutor();
  common::Executor& IntraExecutor();
  /// Publishes `doc`'s MemoryUsage into the footprint gauges.
  void ObserveDocFootprint(const xml::Document& doc);

  Options options_;
  // Declared before cache_: the cache publishes into this registry.
  obs::MetricsRegistry metrics_;
  SchemaRegistry registry_;
  RelationsCache cache_;
  // Null unless Options::plan_cache_dir is set; publishes into metrics_.
  std::unique_ptr<PlanCache> plan_cache_;

  // executors_mutex_ serializes lazy creation ONLY. After an executor is
  // built its raw pointer is published through the atomic, and every later
  // access (including batch workers reaching IntraExecutor() per cast)
  // goes through the lock-free load. The destructor never takes this
  // mutex: holding it across Shutdown() would deadlock with a draining
  // batch worker blocked in IntraExecutor() on the same lock.
  std::mutex executors_mutex_;
  std::unique_ptr<common::Executor> batch_executor_;
  std::unique_ptr<common::Executor> intra_executor_;
  std::atomic<common::Executor*> batch_executor_ptr_{nullptr};
  std::atomic<common::Executor*> intra_executor_ptr_{nullptr};

  // Writers (Record, RecordRejected, and SubmitBatch for the batch
  // counters) hold the shared side across their updates; counters() takes
  // the exclusive side, so no snapshot sees a half-booked request.
  mutable std::shared_mutex snapshot_mutex_;

  obs::Counter* requests_;
  obs::Counter* valid_;
  obs::Counter* invalid_;
  obs::Counter* errors_;
  obs::Counter* batches_;
  obs::Counter* batch_items_;
  obs::Counter* nodes_visited_;
  obs::Counter* dfa_steps_;
  obs::Counter* subtrees_skipped_;
  OpMetrics validate_op_;
  OpMetrics cast_op_;
  OpMetrics cast_stream_op_;
  OpMetrics cast_with_mods_op_;
  OpMetrics edit_stream_op_;
  obs::Counter* stream_bytes_total_;
  obs::Counter* stream_bytes_skipped_total_;
  obs::Gauge* stream_bytes_skipped_;
  obs::Gauge* stream_max_live_frames_;
  obs::Gauge* stream_peak_carry_bytes_;
  obs::Counter* edit_ops_safe_;
  obs::Counter* edit_ops_fatal_;
  obs::Counter* edit_ops_unknown_;
  obs::Counter* streams_safe_;
  obs::Counter* streams_fatal_;
  obs::Counter* streams_fallback_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* batch_service_us_;
  obs::Gauge* batch_inflight_;
  // Queue-depth high-water marks: the depth hooks keep the live depth and
  // its running max below; PublishObsHealth publishes and re-arms them.
  obs::Gauge* batch_queue_depth_;
  obs::Gauge* intra_queue_depth_;
  std::atomic<int64_t> batch_depth_{0};
  std::atomic<int64_t> batch_depth_hwm_{0};
  std::atomic<int64_t> intra_depth_{0};
  std::atomic<int64_t> intra_depth_hwm_{0};
  // TraceSink health (set by PublishObsHealth each snapshot).
  obs::Gauge* trace_buffered_events_;
  obs::Gauge* trace_dropped_events_;
  obs::Gauge* trace_tail_dropped_events_;
  obs::Gauge* trace_staged_events_;
  // Resident footprint of the most recently served document
  // (Document::MemoryUsage: SoA topology columns + payload refs + string
  // arena + attribute side table), total and amortised per node.
  obs::Gauge* doc_bytes_;
  obs::Gauge* doc_bytes_per_node_;

  mutable std::shared_mutex pair_mutex_;
  // Values are stable pointers (node-based map) handed out by PairLatency.
  std::unordered_map<uint64_t, PairEntry> pair_latency_;
};

}  // namespace xmlreval::service

#endif  // XMLREVAL_SERVICE_VALIDATION_SERVICE_H_
