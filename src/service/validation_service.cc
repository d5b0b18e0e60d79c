#include "service/validation_service.h"

#include <utility>

#include "common/macros.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace xmlreval::service {

namespace {

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ValidationService::ValidationService(const Options& options)
    : options_(options),
      metrics_(),
      registry_(),
      cache_(&registry_, options.cache, &metrics_) {
  if (!options_.plan_cache_dir.empty()) {
    plan_cache_ =
        std::make_unique<PlanCache>(options_.plan_cache_dir, &metrics_);
  }
  requests_ = metrics_.counter("xmlreval_requests_total");
  valid_ = metrics_.counter("xmlreval_verdicts_total", {{"verdict", "valid"}});
  invalid_ =
      metrics_.counter("xmlreval_verdicts_total", {{"verdict", "invalid"}});
  errors_ =
      metrics_.counter("xmlreval_verdicts_total", {{"verdict", "error"}});
  batches_ = metrics_.counter("xmlreval_batches_total");
  batch_items_ = metrics_.counter("xmlreval_batch_items_total");
  nodes_visited_ = metrics_.counter("xmlreval_nodes_visited_total");
  dfa_steps_ = metrics_.counter("xmlreval_dfa_steps_total");
  subtrees_skipped_ = metrics_.counter("xmlreval_subtrees_skipped_total");
  auto op = [this](const char* name) {
    return OpMetrics{
        metrics_.counter("xmlreval_op_requests_total", {{"op", name}}),
        metrics_.counter("xmlreval_ops_ok_total", {{"op", name}}),
        metrics_.histogram("xmlreval_request_latency_us", {{"op", name}})};
  };
  validate_op_ = op("validate");
  cast_op_ = op("cast");
  cast_stream_op_ = op("cast_stream");
  stream_bytes_total_ = metrics_.counter("xmlreval_stream_bytes_total");
  stream_bytes_skipped_total_ =
      metrics_.counter("xmlreval_stream_bytes_skipped_total");
  stream_bytes_skipped_ = metrics_.gauge("xmlreval_stream_bytes_skipped");
  stream_max_live_frames_ = metrics_.gauge("xmlreval_stream_max_live_frames");
  stream_peak_carry_bytes_ =
      metrics_.gauge("xmlreval_stream_peak_carry_bytes");
  cast_with_mods_op_ = op("cast_with_mods");
  edit_stream_op_ = op("edit_stream");
  edit_ops_safe_ =
      metrics_.counter("xmlreval_edit_ops_total", {{"verdict", "safe"}});
  edit_ops_fatal_ =
      metrics_.counter("xmlreval_edit_ops_total", {{"verdict", "fatal"}});
  edit_ops_unknown_ =
      metrics_.counter("xmlreval_edit_ops_total", {{"verdict", "unknown"}});
  streams_safe_ = metrics_.counter("xmlreval_edit_streams_total",
                                   {{"path", "short_circuit_safe"}});
  streams_fatal_ = metrics_.counter("xmlreval_edit_streams_total",
                                    {{"path", "short_circuit_fatal"}});
  streams_fallback_ =
      metrics_.counter("xmlreval_edit_streams_total", {{"path", "fallback"}});
  queue_wait_us_ = metrics_.histogram("xmlreval_batch_queue_wait_us");
  batch_service_us_ = metrics_.histogram("xmlreval_batch_service_us");
  batch_inflight_ = metrics_.gauge("xmlreval_batch_inflight");
  batch_queue_depth_ = metrics_.gauge("xmlreval_executor_queue_depth",
                                      {{"executor", "batch"}});
  intra_queue_depth_ = metrics_.gauge("xmlreval_executor_queue_depth",
                                      {{"executor", "intra_doc"}});
  doc_bytes_ = metrics_.gauge("xmlreval_doc_bytes");
  doc_bytes_per_node_ = metrics_.gauge("xmlreval_doc_bytes_per_node");
  trace_buffered_events_ = metrics_.gauge("xmlreval_trace_buffered_events");
  trace_dropped_events_ = metrics_.gauge("xmlreval_trace_dropped_events");
  trace_tail_dropped_events_ =
      metrics_.gauge("xmlreval_trace_tail_dropped_events");
  trace_staged_events_ = metrics_.gauge("xmlreval_trace_staged_events");
  metrics_.OnSnapshot([this] { PublishObsHealth(); });
}

void ValidationService::PublishObsHealth() {
  const obs::TraceSink& sink = obs::TraceSink::Global();
  trace_buffered_events_->Set(static_cast<int64_t>(sink.size()));
  trace_dropped_events_->Set(static_cast<int64_t>(sink.dropped()));
  trace_tail_dropped_events_->Set(static_cast<int64_t>(sink.tail_dropped()));
  trace_staged_events_->Set(static_cast<int64_t>(sink.staged()));

  const obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (recorder.per_thread_capacity() > 0) {
    for (size_t slot = 0; slot < obs::FlightRecorder::kMaxThreads; ++slot) {
      size_t occupancy = recorder.SlotOccupancy(slot);
      if (occupancy == 0) continue;  // gauges only for slots in use
      metrics_
          .gauge("xmlreval_flight_ring_occupancy",
                 {{"thread", std::to_string(slot)}})
          ->Set(static_cast<int64_t>(occupancy));
    }
  }

  // Queue depth: expose the interval's high-water mark, then re-arm the
  // mark at the live depth so the next interval starts fresh.
  auto publish_hwm = [](std::atomic<int64_t>& depth,
                        std::atomic<int64_t>& hwm, obs::Gauge* gauge) {
    int64_t current = depth.load(std::memory_order_relaxed);
    int64_t peak = hwm.exchange(current, std::memory_order_relaxed);
    gauge->Set(peak > current ? peak : current);
  };
  publish_hwm(batch_depth_, batch_depth_hwm_, batch_queue_depth_);
  publish_hwm(intra_depth_, intra_depth_hwm_, intra_queue_depth_);
}

ValidationService::~ValidationService() {
  // Drain in-flight work before members are destroyed, WITHOUT holding
  // executors_mutex_: a draining batch worker may still call
  // IntraExecutor() (large-document cast), and blocking it on a mutex the
  // joining thread holds would deadlock the join. Batch first — only once
  // its workers have exited is the intra pointer final (a worker may
  // create the intra executor mid-drain; its release-store is paired with
  // the acquire-load below).
  if (common::Executor* batch =
          batch_executor_ptr_.load(std::memory_order_acquire)) {
    batch->Shutdown();
  }
  if (common::Executor* intra =
          intra_executor_ptr_.load(std::memory_order_acquire)) {
    intra->Shutdown();
  }
}

Result<SchemaHandle> ValidationService::RegisterText(const std::string& key,
                                                     SchemaFormat format,
                                                     const std::string& text) {
  switch (format) {
    case SchemaFormat::kXsd:
      return registry_.RegisterXsd(key, text);
    case SchemaFormat::kDtd:
      return registry_.RegisterDtd(key, text);
  }
  return Status::InvalidArgument("unknown schema format");
}

Result<ValidationService::PlanPairHandles> ValidationService::ColdCompilePair(
    const PlanPairSpec& spec, const PlanKey* save_key) {
  const auto t0 = Clock::now();
  ASSIGN_OR_RETURN(SchemaHandle source,
                   RegisterText(spec.source_key, spec.source_format,
                                spec.source_text));
  ASSIGN_OR_RETURN(SchemaHandle target,
                   RegisterText(spec.target_key, spec.target_format,
                                spec.target_text));
  // Run the pair's full preprocessing eagerly — the fixpoints AND the
  // analyzer tables — so the plan captures everything a warm start skips.
  ASSIGN_OR_RETURN(RelationsPtr relations, cache_.Get(source, target));
  // Some pairs have no analyzer (compile failure); the plan simply omits
  // the tables and warm starts recompute nothing (there is nothing to).
  Result<AnalyzerPtr> analyzer = cache_.GetAnalyzer(source, target);
  if (plan_cache_ != nullptr) {
    plan_cache_->RecordCompileNs(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
  }
  if (save_key != nullptr && plan_cache_ != nullptr) {
    std::shared_ptr<const schema::Schema> src = registry_.schema(source);
    std::shared_ptr<const schema::Schema> tgt = registry_.schema(target);
    const analysis::UpdateAnalyzer* az =
        analyzer.ok() ? analyzer.value().get() : nullptr;
    // A failed save is non-fatal: this process serves from memory and the
    // next cold process recompiles.
    (void)plan_cache_->Save(*save_key, *src, *tgt, *relations, az);
  }
  return PlanPairHandles{source, target, /*warm=*/false};
}

Result<ValidationService::PlanPairHandles> ValidationService::AdoptPlan(
    const PlanPairSpec& spec, PlanBundle bundle) {
  Status adopted = registry_.AdoptAlphabet(bundle.alphabet);
  if (!adopted.ok()) {
    // A registration slipped in since the emptiness check; the plan's
    // symbol ids no longer line up with the registry's alphabet.
    plan_cache_->RecordBypass();
    return ColdCompilePair(spec, /*save_key=*/nullptr);
  }
  ASSIGN_OR_RETURN(
      SchemaHandle source,
      registry_.RegisterCompiled(spec.source_key, spec.source_text,
                                 bundle.source));
  ASSIGN_OR_RETURN(
      SchemaHandle target,
      registry_.RegisterCompiled(spec.target_key, spec.target_text,
                                 bundle.target));
  cache_.Seed(source, target, bundle.relations, bundle.analyzer);
  return PlanPairHandles{source, target, /*warm=*/true};
}

Result<ValidationService::PlanPairHandles> ValidationService::RegisterPlanPair(
    const PlanPairSpec& spec) {
  if (plan_cache_ == nullptr) {
    return ColdCompilePair(spec, /*save_key=*/nullptr);
  }

  PlanKey key;
  key.source_format = spec.source_format;
  key.source_text = spec.source_text;
  key.target_format = spec.target_format;
  key.target_text = spec.target_text;
  key.reverse_automata = options_.cache.relations.build_reverse_automata;

  if (registry_.size() != 0) {
    // A plan's alphabet can only be adopted into an empty registry; with
    // schemas already bound to the current Σ the plan's symbol ids would
    // not line up. Compile cold (and don't save — the artifact on disk,
    // if any, is still the authoritative one).
    plan_cache_->RecordBypass();
    return ColdCompilePair(spec, /*save_key=*/nullptr);
  }

  Result<PlanBundle> loaded = plan_cache_->Load(key);
  if (loaded.ok()) return AdoptPlan(spec, std::move(loaded).value());
  if (loaded.status().code() != StatusCode::kNotFound &&
      loaded.status().code() != StatusCode::kDataLoss) {
    return loaded.status();
  }

  // Miss (or rejected artifact): single-flight the compile behind the
  // per-plan flock, then re-probe — another process/thread may have
  // published while we waited.
  Result<ScopedPlanLock> lock = plan_cache_->AcquireLock(key);
  if (!lock.ok()) {
    // Lock file unusable (read-only dir?): still serve, just without
    // cross-process stampede protection.
    return ColdCompilePair(spec, &key);
  }
  loaded = plan_cache_->Load(key);
  if (loaded.ok()) return AdoptPlan(spec, std::move(loaded).value());
  return ColdCompilePair(spec, &key);
}

Result<core::ValidationReport> ValidationService::Record(
    Result<core::ValidationReport> result, const OpMetrics& op,
    Clock::time_point start, const PairEntry* pair, obs::RequestScope* scope,
    uint64_t node_count) {
  const uint64_t micros = ElapsedMicros(start);
  const bool failed = !result.ok() || !result->valid;
  {
    // Shared side of the snapshot lock: concurrent requests record in
    // parallel; counters() excludes them all for one consistent read.
    std::shared_lock lock(snapshot_mutex_);
    requests_->Add();
    op.dispatched->Add();
    op.latency->Record(micros);
    if (pair != nullptr) pair->latency->Record(micros);
    if (!result.ok()) {
      errors_->Add();
    } else {
      op.ok->Add();
      (result->valid ? valid_ : invalid_)->Add();
      const core::ValidationCounters& c = result->counters;
      nodes_visited_->Add(c.nodes_visited);
      dfa_steps_->Add(c.dfa_steps);
      subtrees_skipped_->Add(c.subtrees_skipped);
    }
  }
  // Settle the request's trace: keep failures and tail-bucket latencies,
  // and pin an exemplar where kept so the histogram's tail is clickable.
  // trace_id is 0 whenever no span consumer is active, so this whole
  // block is two branches on the uninstrumented hot path.
  if (scope != nullptr && scope->trace_id() != 0) {
    const bool keep = failed || op.latency->IsTailValue(micros);
    if (scope->owns()) {
      scope->set_keep(keep);
    } else if (keep) {
      obs::HintKeepTrace();  // a batch item's owner resolves later
    }
    if (keep) {
      obs::Exemplar exemplar;
      exemplar.trace_id = scope->trace_id();
      exemplar.value = micros;
      exemplar.node_count = node_count;
      if (pair != nullptr) exemplar.pair = pair->label;
      exemplar.verdict =
          !result.ok() ? "error" : (result->valid ? "valid" : "invalid");
      op.latency->RecordExemplar(micros, exemplar);
      if (pair != nullptr) pair->latency->RecordExemplar(micros, exemplar);
    }
  }
  return result;
}

void ValidationService::RecordRejected() {
  std::shared_lock lock(snapshot_mutex_);
  requests_->Add();
  errors_->Add();
}

const ValidationService::PairEntry* ValidationService::PairLatency(
    SchemaHandle source, SchemaHandle target) {
  const uint64_t key =
      (static_cast<uint64_t>(source) << 32) | static_cast<uint64_t>(target);
  {
    std::shared_lock lock(pair_mutex_);
    auto it = pair_latency_.find(key);
    if (it != pair_latency_.end()) return &it->second;
  }
  // Label with registry keys, "orders.v2->orders.v3"; bad handles get no
  // pair histogram (the request will fail in the cache anyway).
  Result<SchemaRegistry::Info> src = registry_.info(source);
  Result<SchemaRegistry::Info> tgt = registry_.info(target);
  if (!src.ok() || !tgt.ok()) return nullptr;
  std::string pair = src->key + ".v" + std::to_string(src->version) + "->" +
                     tgt->key + ".v" + std::to_string(tgt->version);
  obs::Histogram* hist = metrics_.histogram("xmlreval_pair_request_latency_us",
                                            {{"pair", pair}});
  std::unique_lock lock(pair_mutex_);
  return &pair_latency_.try_emplace(key, PairEntry{hist, std::move(pair)})
              .first->second;
}

Status ValidationService::BindDocument(xml::Document* doc) const {
  if (doc == nullptr) {
    return Status::InvalidArgument("BindDocument requires a document");
  }
  // Find-only bind: never grows Σ, so the shared guard suffices. The
  // resolved symbols stay valid after the guard is released because the
  // registry's Alphabet is append-only.
  auto guard = registry_.ReadGuard();
  return doc->Bind(registry_.alphabet());
}

void ValidationService::ObserveDocFootprint(const xml::Document& doc) {
  if (doc.NodeCount() == 0) return;
  const size_t bytes = doc.MemoryUsage().total();
  doc_bytes_->Set(static_cast<int64_t>(bytes));
  doc_bytes_per_node_->Set(static_cast<int64_t>(bytes / doc.NodeCount()));
}

Result<core::ValidationReport> ValidationService::Validate(
    SchemaHandle schema, const xml::Document& doc) {
  obs::RequestScope request_scope;
  obs::Span span("svc.validate");
  ObserveDocFootprint(doc);
  const Clock::time_point start = Clock::now();
  auto run = [&]() -> Result<core::ValidationReport> {
    std::shared_ptr<const schema::Schema> target = registry_.schema(schema);
    if (!target) {
      return Status::InvalidArgument("invalid schema handle " +
                                     std::to_string(schema));
    }
    // Validators read the shared Alphabet (label lookup on the hot path);
    // the guard keeps concurrent registrations from growing Σ under them.
    auto guard = registry_.ReadGuard();
    return core::FullValidator(target.get()).Validate(doc);
  };
  return Record(run(), validate_op_, start, nullptr, &request_scope,
                doc.NodeCount());
}

Result<core::ValidationReport> ValidationService::Cast(
    SchemaHandle source, SchemaHandle target, const xml::Document& doc) {
  obs::RequestScope request_scope;
  obs::Span span("svc.cast");
  if (span.enabled()) {
    span.Arg("src", source);
    span.Arg("tgt", target);
    span.Arg("nodes", doc.NodeCount());
  }
  ObserveDocFootprint(doc);
  const Clock::time_point start = Clock::now();
  auto run = [&]() -> Result<core::ValidationReport> {
    ASSIGN_OR_RETURN(RelationsPtr relations, cache_.Get(source, target));
    auto guard = registry_.ReadGuard();
    if (options_.check_cast_precondition) {
      core::ValidationReport source_report =
          core::FullValidator(&relations->source()).Validate(doc);
      if (!source_report.valid) {
        return Status::FailedPrecondition(
            "document is not valid under the source schema (" +
            source_report.violation + "); the cast precondition fails");
      }
    }
    // Large documents fan their subtrees out over the intra-doc executor;
    // below the threshold (or with the feature off) the serial engine
    // wins — spawn overhead would swamp a small walk. Either engine
    // returns the same report on the same input.
    if (options_.intra_doc_threads > 0 &&
        doc.NodeCount() >= options_.intra_doc_min_nodes) {
      core::ParallelCastValidator::Options parallel_options;
      parallel_options.cast = options_.cast;
      parallel_options.spawn_threshold = options_.intra_doc_spawn_threshold;
      return core::ParallelCastValidator(relations.get(), &IntraExecutor(),
                                         parallel_options)
          .Validate(doc);
    }
    return core::CastValidator(relations.get(), options_.cast).Validate(doc);
  };
  return Record(run(), cast_op_, start, PairLatency(source, target),
                &request_scope, doc.NodeCount());
}

// ---------------------------------------------------------------------
// Streaming cast
// ---------------------------------------------------------------------

namespace {

core::ValidationReport ToValidationReport(const core::StreamingReport& s) {
  core::ValidationReport report;
  report.valid = s.valid;
  report.violation = s.violation;
  if (s.violation_path_known) {
    report.violation_path = xml::DeweyPath(s.violation_path);
  }
  report.counters = s.counters;
  return report;
}

}  // namespace

struct ValidationService::CastStreamSession::State {
  ValidationService* service;
  RelationsPtr relations;  // pins the pair (and its schemas) for the session
  std::shared_lock<std::shared_mutex> guard;  // registry read guard
  core::StreamingCastSession engine;
  const PairEntry* pair;
  Clock::time_point start;
  bool finished = false;
  Result<core::ValidationReport> final_result = core::ValidationReport{};

  State(ValidationService* service_in, RelationsPtr relations_in,
        std::shared_lock<std::shared_mutex> guard_in, const PairEntry* pair_in)
      : service(service_in),
        relations(std::move(relations_in)),
        guard(std::move(guard_in)),
        engine(*relations),
        pair(pair_in),
        start(Clock::now()) {}
};

ValidationService::CastStreamSession::CastStreamSession(
    std::unique_ptr<State> state)
    : state_(std::move(state)) {}

// An abandoned session (destroyed without Finish) books nothing.
ValidationService::CastStreamSession::~CastStreamSession() = default;

Status ValidationService::CastStreamSession::Feed(std::string_view chunk) {
  if (state_->finished) {
    return Status::FailedPrecondition("cast stream already finished");
  }
  return state_->engine.Feed(chunk);
}

Result<core::ValidationReport> ValidationService::CastStreamSession::Finish() {
  if (state_->finished) return state_->final_result;
  state_->finished = true;
  obs::RequestScope request_scope;
  obs::Span span("svc.cast_stream");
  const core::StreamingReport& streamed = state_->engine.Finish();
  if (span.enabled()) {
    span.Arg("bytes_fed", streamed.bytes_fed);
    span.Arg("bytes_skipped", streamed.bytes_skipped);
    span.Arg("max_live_frames", streamed.max_live_frames);
  }
  ValidationService* service = state_->service;
  {
    std::shared_lock lock(service->snapshot_mutex_);
    service->stream_bytes_total_->Add(streamed.bytes_fed);
    service->stream_bytes_skipped_total_->Add(streamed.bytes_skipped);
  }
  service->stream_bytes_skipped_->Set(
      static_cast<int64_t>(streamed.bytes_skipped));
  service->stream_max_live_frames_->Set(
      static_cast<int64_t>(streamed.max_live_frames));
  service->stream_peak_carry_bytes_->Set(
      static_cast<int64_t>(streamed.peak_carry_bytes));
  auto run = [&]() -> Result<core::ValidationReport> {
    const Status& status = state_->engine.status();
    // kInvalidArgument here is the engine's cast-rejection channel — that
    // is a verdict, not an error. Anything else non-OK (malformed bytes,
    // unsupported entity) is a real error, as a DOM parse failure would be.
    if (!status.ok() && status.code() != StatusCode::kInvalidArgument) {
      return status;
    }
    return ToValidationReport(streamed);
  };
  state_->final_result = service->Record(
      run(), service->cast_stream_op_, state_->start, state_->pair,
      &request_scope, streamed.counters.nodes_visited);
  return state_->final_result;
}

const core::StreamingReport&
ValidationService::CastStreamSession::streaming_report() const {
  return state_->engine.Finish();
}

Result<std::unique_ptr<ValidationService::CastStreamSession>>
ValidationService::StartCastStream(SchemaHandle source, SchemaHandle target) {
  const Clock::time_point start = Clock::now();
  auto relations = cache_.Get(source, target);
  if (!relations.ok()) {
    // Book the failed open so requests == valid + invalid + errors holds
    // for streaming requests too.
    obs::RequestScope request_scope;
    Record(relations.status(), cast_stream_op_, start,
           PairLatency(source, target), &request_scope, 0);
    return relations.status();
  }
  auto state = std::make_unique<CastStreamSession::State>(
      this, std::move(relations).value(), registry_.ReadGuard(),
      PairLatency(source, target));
  state->start = start;
  return std::unique_ptr<CastStreamSession>(
      new CastStreamSession(std::move(state)));
}

Result<core::ValidationReport> ValidationService::CastStream(
    SchemaHandle source, SchemaHandle target, std::string_view text) {
  ASSIGN_OR_RETURN(std::unique_ptr<CastStreamSession> session,
                   StartCastStream(source, target));
  // An early-decided verdict just stops the feed; Finish reports it.
  Status fed = session->Feed(text);
  (void)fed;
  return session->Finish();
}

Result<core::ValidationReport> ValidationService::CastWithMods(
    SchemaHandle source, SchemaHandle target, const xml::Document& doc,
    const xml::ModificationIndex& mods) {
  obs::RequestScope request_scope;
  obs::Span span("svc.cast_with_mods");
  const Clock::time_point start = Clock::now();
  auto run = [&]() -> Result<core::ValidationReport> {
    ASSIGN_OR_RETURN(RelationsPtr relations, cache_.Get(source, target));
    auto guard = registry_.ReadGuard();
    return core::ModValidator(relations.get()).Validate(doc, mods);
  };
  return Record(run(), cast_with_mods_op_, start, PairLatency(source, target),
                &request_scope, doc.NodeCount());
}

Result<analysis::OpVerdict> ValidationService::AnalyzeUpdate(
    SchemaHandle source, SchemaHandle target, const xml::Document& doc,
    const xml::EditOp& op) {
  obs::Span span("svc.analyze_update");
  ASSIGN_OR_RETURN(AnalyzerPtr analyzer, cache_.GetAnalyzer(source, target));
  auto guard = registry_.ReadGuard();
  return analyzer->Analyze(doc, op);
}

Result<ValidationService::EditStreamResult> ValidationService::SubmitEditStream(
    SchemaHandle source, SchemaHandle target, xml::Document* doc,
    const std::vector<xml::EditOp>& ops) {
  obs::RequestScope request_scope;
  obs::Span span("svc.edit_stream");
  const Clock::time_point start = Clock::now();
  auto run = [&]() -> Result<EditStreamResult> {
    if (doc == nullptr) {
      return Status::InvalidArgument("SubmitEditStream requires a document");
    }
    ASSIGN_OR_RETURN(AnalyzerPtr analyzer, cache_.GetAnalyzer(source, target));
    auto guard = registry_.ReadGuard();

    EditStreamResult result;
    analysis::StreamSession session(analyzer.get(), doc);
    for (const xml::EditOp& op : ops) {
      RETURN_IF_ERROR(session.Apply(op).WithContext("edit stream op"));
    }
    {
      obs::Span classify_span("analysis.classify");
      result.stream = session.Classify();
    }

    if (result.stream.decided()) {
      // Short circuit: the composed static verdict IS the answer; no
      // validator runs, no node is visited.
      result.short_circuited = true;
      result.report.valid = result.stream.verdict == analysis::Safety::kSafe;
      if (!result.report.valid) {
        result.report.violation = result.stream.reason;
      }
      // The editor contract requires Seal() before Commit(); the index it
      // returns (O(|ops|), no tree traversal) is simply dropped.
      session.Seal();
      RETURN_IF_ERROR(session.Commit());
      return result;
    }

    // Fallback: the session doubles as a plain editor; seal its Δ-index
    // and run the §3.3 incremental validator as CastWithMods would.
    xml::ModificationIndex mods = session.Seal();
    result.report =
        core::ModValidator(&analyzer->relations()).Validate(*doc, mods);
    RETURN_IF_ERROR(session.Commit());
    return result;
  };

  Result<EditStreamResult> result = run();
  const uint64_t micros = ElapsedMicros(start);
  const PairEntry* pair = PairLatency(source, target);
  {
    std::shared_lock lock(snapshot_mutex_);
    requests_->Add();
    edit_stream_op_.dispatched->Add();
    edit_stream_op_.latency->Record(micros);
    if (pair != nullptr) pair->latency->Record(micros);
    if (!result.ok()) {
      errors_->Add();
    } else {
      edit_stream_op_.ok->Add();
      (result->report.valid ? valid_ : invalid_)->Add();
      const analysis::StreamVerdict& stream = result->stream;
      edit_ops_safe_->Add(stream.safe_ops);
      edit_ops_fatal_->Add(stream.fatal_ops);
      edit_ops_unknown_->Add(stream.unknown_ops);
      if (result->short_circuited) {
        (stream.verdict == analysis::Safety::kSafe ? streams_safe_
                                                   : streams_fatal_)
            ->Add();
      } else {
        streams_fallback_->Add();
        const core::ValidationCounters& c = result->report.counters;
        nodes_visited_->Add(c.nodes_visited);
        dfa_steps_->Add(c.dfa_steps);
        subtrees_skipped_->Add(c.subtrees_skipped);
      }
    }
  }
  if (request_scope.trace_id() != 0) {
    const bool failed = !result.ok() || !result->report.valid;
    const bool keep = failed || edit_stream_op_.latency->IsTailValue(micros);
    if (request_scope.owns()) {
      request_scope.set_keep(keep);
    } else if (keep) {
      obs::HintKeepTrace();
    }
    if (keep) {
      obs::Exemplar exemplar;
      exemplar.trace_id = request_scope.trace_id();
      exemplar.value = micros;
      exemplar.node_count = doc != nullptr ? doc->NodeCount() : 0;
      if (pair != nullptr) exemplar.pair = pair->label;
      exemplar.verdict =
          !result.ok() ? "error" : (result->report.valid ? "valid" : "invalid");
      edit_stream_op_.latency->RecordExemplar(micros, exemplar);
      if (pair != nullptr) pair->latency->RecordExemplar(micros, exemplar);
    }
  }
  return result;
}

common::Executor& ValidationService::BatchExecutor() {
  // Double-checked: lock-free after first init (see header comment on
  // executors_mutex_).
  if (common::Executor* existing =
          batch_executor_ptr_.load(std::memory_order_acquire)) {
    return *existing;
  }
  std::lock_guard lock(executors_mutex_);
  if (!batch_executor_) {
    common::Executor::Options options;
    options.threads = options_.batch_threads;
    options.queue_capacity = options_.batch_queue_capacity;
    options.depth_hook = [this](int64_t delta) {
      // Live depth + running max; PublishObsHealth turns the max into the
      // gauge each snapshot (bursts between snapshots stay visible).
      int64_t now =
          batch_depth_.fetch_add(delta, std::memory_order_relaxed) + delta;
      int64_t seen = batch_depth_hwm_.load(std::memory_order_relaxed);
      while (now > seen && !batch_depth_hwm_.compare_exchange_weak(
                               seen, now, std::memory_order_relaxed)) {
      }
    };
    options.task_wrapper = [](common::Executor::Task task) {
      // Capture the submitting thread's causal context and re-install it
      // around execution on whichever worker picks the task up.
      obs::TraceContext ctx = obs::CurrentTraceContext();
      return common::Executor::Task([ctx, task = std::move(task)] {
        obs::ScopedTraceContext scoped(ctx);
        task();
      });
    };
    batch_executor_ = std::make_unique<common::Executor>(options);
    batch_executor_ptr_.store(batch_executor_.get(),
                              std::memory_order_release);
  }
  return *batch_executor_;
}

common::Executor& ValidationService::IntraExecutor() {
  if (common::Executor* existing =
          intra_executor_ptr_.load(std::memory_order_acquire)) {
    return *existing;
  }
  std::lock_guard lock(executors_mutex_);
  if (!intra_executor_) {
    common::Executor::Options options;
    options.threads = options_.intra_doc_threads;
    // Donated subtree tasks come from worker threads (own deques); the
    // injection queue only ever carries each document's root task.
    options.queue_capacity = 64;
    options.depth_hook = [this](int64_t delta) {
      int64_t now =
          intra_depth_.fetch_add(delta, std::memory_order_relaxed) + delta;
      int64_t seen = intra_depth_hwm_.load(std::memory_order_relaxed);
      while (now > seen && !intra_depth_hwm_.compare_exchange_weak(
                               seen, now, std::memory_order_relaxed)) {
      }
    };
    intra_executor_ = std::make_unique<common::Executor>(options);
    intra_executor_ptr_.store(intra_executor_.get(),
                              std::memory_order_release);
  }
  return *intra_executor_;
}

ValidationService::BatchItemResult ValidationService::ProcessItem(
    const BatchItem& item) {
  obs::Span span("batch.item");
  batch_inflight_->Add(1);
  const Clock::time_point start = Clock::now();
  BatchItemResult result = [&]() -> BatchItemResult {
    BatchItemResult out;
    // Large casts stream: the text is consumed incrementally by the
    // push-parser engine and no DOM is ever materialized on the worker.
    if (item.op == BatchOp::kCast && options_.stream_threshold_bytes > 0 &&
        item.xml_text.size() >= options_.stream_threshold_bytes) {
      Result<core::ValidationReport> report =
          CastStream(item.source, item.target, item.xml_text);
      if (!report.ok()) {
        out.status = report.status().WithContext("batch item");
        return out;
      }
      out.report = std::move(report).value();
      return out;
    }
    Result<xml::Document> doc = [&] {
      obs::Span parse_span("item.parse");
      return xml::ParseXml(item.xml_text);
    }();
    if (!doc.ok()) {
      RecordRejected();
      out.status = doc.status().WithContext("batch item");
      return out;
    }
    // Bind once per item: every validator the item reaches (precondition
    // check, cast, full validation) then reads node symbols directly
    // instead of hashing each label against the shared Alphabet.
    Status bind = [&] {
      obs::Span bind_span("item.bind");
      return BindDocument(&*doc);
    }();
    if (!bind.ok()) {
      RecordRejected();
      out.status = bind.WithContext("batch item");
      return out;
    }
    Result<core::ValidationReport> report =
        item.op == BatchOp::kValidate ? Validate(item.target, *doc)
                                      : Cast(item.source, item.target, *doc);
    if (!report.ok()) {
      out.status = report.status();
      return out;
    }
    out.report = std::move(report).value();
    return out;
  }();
  batch_service_us_->Record(ElapsedMicros(start));
  batch_inflight_->Sub(1);
  return result;
}

struct ValidationService::BatchState {
  std::vector<BatchItem> items;
  std::vector<BatchItemResult> results;
  std::atomic<size_t> remaining{0};
  std::promise<std::vector<BatchItemResult>> done;
};

std::future<std::vector<ValidationService::BatchItemResult>>
ValidationService::SubmitBatch(std::vector<BatchItem> items) {
  {
    std::shared_lock lock(snapshot_mutex_);
    batches_->Add();
    batch_items_->Add(items.size());
  }

  auto state = std::make_shared<BatchState>();
  state->items = std::move(items);
  state->results.resize(state->items.size());
  state->remaining.store(state->items.size(), std::memory_order_relaxed);
  std::future<std::vector<BatchItemResult>> future =
      state->done.get_future();
  if (state->items.empty()) {
    state->done.set_value({});
    return future;
  }

  common::Executor& pool = BatchExecutor();
  obs::Span submit_span("batch.submit");
  for (size_t i = 0; i < state->items.size(); ++i) {
    // Each item is its own request: mint its trace id on the submitting
    // thread and fork a flow edge under it, so the Chrome trace draws an
    // arrow from this batch.submit span to the item's batch.item span on
    // whichever worker runs it. All-zero when tracing is off.
    obs::TraceContext item_ctx;
    {
      obs::ScopedTraceContext minted(
          obs::TraceContext{obs::NewTraceId(), 0, nullptr});
      item_ctx = obs::ForkFlow("batch.flow");
      item_ctx.trace_id = obs::CurrentTraceContext().trace_id;
    }
    // Trace-epoch timestamp doubles as the queue-wait baseline, so the
    // histogram sample and the "queue.wait" trace event agree exactly.
    const uint64_t enqueued_us = obs::TraceNowMicros();
    auto task = [this, state, i, enqueued_us, item_ctx] {
      // This scope OWNS the item's trace: it minted above, and everything
      // the item does (parse, bind, nested Cast/Validate, intra-doc
      // fan-out) runs below it, so its destructor resolves tail sampling
      // after the last span of the item has been staged.
      obs::RequestScope request_scope(item_ctx);
      obs::ScopedTraceContext scoped(item_ctx);
      const uint64_t picked_up_us = obs::TraceNowMicros();
      const uint64_t wait_us =
          picked_up_us > enqueued_us ? picked_up_us - enqueued_us : 0;
      queue_wait_us_->Record(wait_us);
      if (obs::TraceEnabled()) {
        obs::FlowStep(item_ctx);  // flow touches down at queue pickup
        // Manual event: the wait has no RAII scope (it spans two threads).
        obs::TraceSink::Event event;
        event.name = "queue.wait";
        event.ts_us = enqueued_us;
        event.dur_us = wait_us;
        event.trace_id = item_ctx.trace_id;
        event.tid = obs::TraceSink::CurrentThreadId();
        obs::TraceSink::Global().Record(event);
      }
      state->results[i] = ProcessItem(state->items[i]);
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state->done.set_value(std::move(state->results));
      }
    };
    if (!pool.Submit(task)) {
      // Pool shut down mid-batch (service teardown): fail the rest.
      state->results[i].status =
          Status::FailedPrecondition("batch pipeline is shut down");
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state->done.set_value(std::move(state->results));
      }
    }
  }
  return future;
}

ValidationService::Counters ValidationService::counters() const {
  // Exclusive side: no request is mid-record while we read, so the
  // snapshot satisfies requests == valid + invalid + errors.
  std::unique_lock lock(snapshot_mutex_);
  Counters counters;
  counters.requests = requests_->Value();
  counters.valid = valid_->Value();
  counters.invalid = invalid_->Value();
  counters.errors = errors_->Value();
  counters.full_validations = validate_op_.ok->Value();
  counters.casts = cast_op_.ok->Value();
  counters.casts_with_mods = cast_with_mods_op_.ok->Value();
  counters.cast_streams = cast_stream_op_.ok->Value();
  counters.stream_bytes = stream_bytes_total_->Value();
  counters.stream_bytes_skipped = stream_bytes_skipped_total_->Value();
  counters.batches = batches_->Value();
  counters.batch_items = batch_items_->Value();
  counters.nodes_visited = nodes_visited_->Value();
  counters.edit_streams = edit_stream_op_.ok->Value();
  counters.streams_short_circuited =
      streams_safe_->Value() + streams_fatal_->Value();
  counters.edit_ops_safe = edit_ops_safe_->Value();
  counters.edit_ops_fatal = edit_ops_fatal_->Value();
  counters.edit_ops_unknown = edit_ops_unknown_->Value();
  return counters;
}

}  // namespace xmlreval::service
