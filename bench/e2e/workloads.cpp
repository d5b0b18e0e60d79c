// The five bench_e2e workloads. Each file-local class below documents what
// one request does and why the workload exists; README.md tabulates the
// same. Every input is valid under its pair's source schema (the §3.2
// precondition), and every verdict is checked against full validation of
// the input under the target schema.

#include "workloads.h"

#include <future>
#include <optional>
#include <utility>

#include "core/cast_validator.h"
#include "core/full_validator.h"
#include "core/mod_validator.h"
#include "workload/po_schemas.h"
#include "workload/update_workload.h"
#include "xml/editor.h"
#include "xml/parser.h"

namespace xmlreval::bench_e2e {
namespace {

using service::AnalyzerPtr;
using service::RelationsPtr;

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

bool Contains(const std::vector<size_t>& values, size_t v) {
  for (size_t x : values) {
    if (x == v) return true;
  }
  return false;
}

xml::Document ParseBound(ValidationService* service, std::string_view text) {
  xml::Document doc = Take(xml::ParseXml(text), "parse input");
  Check(service->BindDocument(&doc), "bind input");
  return doc;
}

/// Definition 1: the verdict of full validation against `schema`.
bool FullVerdict(ValidationService* service, SchemaHandle schema,
                 const xml::Document& doc) {
  std::shared_ptr<const schema::Schema> target =
      service->registry().schema(schema);
  return core::FullValidator(target.get()).Validate(doc).valid;
}

/// Σ MemoryUsage().total() and Σ NodeCount() over a workload's DOMs.
struct Footprint {
  double bytes = 0;
  double nodes = 0;
  void Add(const xml::Document& doc) {
    bytes += static_cast<double>(doc.MemoryUsage().total());
    nodes += static_cast<double>(doc.NodeCount());
  }
  void Report(LayerValues* out) const {
    (*out)["xml.doc.bytes_per_node"] = Ratio(bytes, nodes);
  }
};

/// The work counters of the cast reports of traced requests (exact).
struct CastTally {
  uint64_t docs = 0;
  uint64_t doc_nodes = 0;
  core::ValidationCounters counters;

  void Add(const core::ValidationReport& report, uint64_t nodes) {
    ++docs;
    doc_nodes += nodes;
    counters += report.counters;
  }
  void Report(LayerValues* out) const {
    const double n = static_cast<double>(docs);
    (*out)["core.cast.visited_frac"] =
        Ratio(static_cast<double>(counters.nodes_visited),
              static_cast<double>(doc_nodes));
    (*out)["core.cast.dfa_steps_per_doc"] =
        Ratio(static_cast<double>(counters.dfa_steps), n);
    (*out)["core.cast.subtrees_skipped_per_doc"] =
        Ratio(static_cast<double>(counters.subtrees_skipped), n);
    (*out)["core.cast.disjoint_rejects_per_doc"] =
        Ratio(static_cast<double>(counters.disjoint_rejects), n);
    (*out)["core.cast.immediate_decisions_per_doc"] =
        Ratio(static_cast<double>(counters.immediate_decisions), n);
  }
};

/// The DOM cast layers of traced requests: the service's Cast span beside a
/// bare core::CastValidator::Validate of the same bound document.
struct DomCastTally {
  CastTally cast;
  int64_t bare_ns = 0;
  uint64_t bare_visited = 0;

  void Bare(Tracer* tracer, const core::TypeRelations& relations,
            const xml::Document& doc) {
    Span span(tracer, "sibling.cast_walk");
    core::ValidationReport report =
        core::CastValidator(&relations).Validate(doc);
    bare_ns += span.Close();
    bare_visited += report.counters.nodes_visited;
  }

  void Report(const Tracer& tracer, LayerValues* out) const {
    const Tracer::Totals service_cast = tracer.Get("service.cast");
    (*out)["service.cast.ns_per_node"] =
        Ratio(static_cast<double>(service_cast.total_ns),
              static_cast<double>(cast.doc_nodes));
    (*out)["service.cast.overhead_ns"] =
        Ratio(static_cast<double>(service_cast.total_ns - bare_ns),
              static_cast<double>(service_cast.count));
    (*out)["core.cast.ns_per_node_visited"] =
        Ratio(static_cast<double>(bare_ns), static_cast<double>(bare_visited));
    cast.Report(out);
  }
};

// ---------------------------------------------------------------------------

/// po_cast_dom — the paper's broker path from bytes to verdict: one request
/// is xml::ParseXml → BindDocument → Cast of a 1000-item purchase order
/// under the Experiment 2 pair (Figure 2 with quantity < 200 → Figure 2).
/// 64 distinct orders; 8 carry one quantity in [100, 149], so the target
/// rejects them. Parse dominates, so a parse or bind change shows here and
/// a walk change barely does.
class PoCastDom final : public Workload {
 public:
  static constexpr size_t kDocs = 64;
  static constexpr size_t kInvalid = 8;

  void Generate(uint64_t seed, Fnv1a* digest) override {
    Rng rng(Mix(seed, 1));
    const std::vector<size_t> bad = rng.Distinct(kInvalid, kDocs);
    for (size_t k = 0; k < kDocs; ++k) {
      PoSpec spec;
      if (Contains(bad, k)) spec.bad_item = rng.Uniform(0, 999);
      texts_.push_back(PurchaseOrderText(spec, Mix(seed, 2, k)));
      digest->Add(texts_.back());
    }
  }

  std::vector<SchemaSpec> Schemas() const override {
    return {{"po.relaxed", workload::kRelaxedQuantityXsd},
            {"po.fig2", workload::kTargetXsd}};
  }
  std::vector<std::pair<size_t, size_t>> Pairs() const override {
    return {{0, 1}};
  }

  void Prepare(ValidationService* service,
               std::vector<SchemaHandle> handles) override {
    service_ = service;
    source_ = handles[0];
    target_ = handles[1];
    relations_ = Take(service->cache().Get(source_, target_), "relations");
    for (const std::string& text : texts_) {
      xml::Document doc = ParseBound(service, text);
      expected_.push_back(FullVerdict(service, target_, doc));
      footprint_.Add(doc);
    }
  }

  void Stage(uint64_t, Tracer*) override { doc_.reset(); }

  Outcome Run(uint64_t request, Tracer* tracer) override {
    const size_t k = request % kDocs;
    const std::string& text = texts_[k];
    Result<xml::Document> parsed = [&] {
      Span span(tracer, "xml.parse");
      return xml::ParseXml(text);
    }();
    if (!parsed.ok()) return {1, 1};
    doc_.emplace(std::move(parsed).value());
    const Status bound = [&] {
      Span span(tracer, "service.bind");
      return service_->BindDocument(&*doc_);
    }();
    if (!bound.ok()) return {1, 1};
    const Result<core::ValidationReport> report = [&] {
      Span span(tracer, "service.cast");
      return service_->Cast(source_, target_, *doc_);
    }();
    if (tracer != nullptr) {
      parsed_bytes_ += static_cast<double>(text.size());
      if (report.ok()) dom_.cast.Add(*report, doc_->NodeCount());
    }
    return {1, !report.ok() || report->valid != expected_[k] ? 1u : 0u};
  }

  void Siblings(uint64_t, Tracer* tracer) override {
    if (doc_) dom_.Bare(tracer, *relations_, *doc_);
  }

  void Layers(const MeasuredWindow& window, LayerValues* out) override {
    const Tracer& tracer = *window.tracer;
    (*out)["xml.parse.ns_per_byte"] = Ratio(
        static_cast<double>(tracer.Get("xml.parse").total_ns), parsed_bytes_);
    (*out)["service.bind.ns_per_node"] =
        Ratio(static_cast<double>(tracer.Get("service.bind").total_ns),
              static_cast<double>(dom_.cast.doc_nodes));
    footprint_.Report(out);
    dom_.Report(tracer, out);
  }

 private:
  std::vector<std::string> texts_;
  std::vector<bool> expected_;
  ValidationService* service_ = nullptr;
  SchemaHandle source_ = service::kInvalidSchemaHandle;
  SchemaHandle target_ = service::kInvalidSchemaHandle;
  RelationsPtr relations_;
  std::optional<xml::Document> doc_;
  Footprint footprint_;
  double parsed_bytes_ = 0;
  DomCastTally dom_;
};

// ---------------------------------------------------------------------------

/// corpus_recast — schema evolution over a resident corpus (Table 2's
/// in-memory measurement): one request is Cast of an already parsed and
/// bound 1000-item order. 128 orders (~1M nodes, ~55 MB of DOM, far more
/// than a core's private caches). Three requests in four use the Experiment
/// 2 pair, which descends into every item; the fourth uses the Experiment 1
/// pair (Figure 1a → Figure 2), where items are subsumed and the walk stops
/// near the root.
/// With no parse, the walk, R_sub/R_dis pruning and the service wrapper do
/// all the work.
class CorpusRecast final : public Workload {
 public:
  static constexpr size_t kDocs = 128;

  void Generate(uint64_t seed, Fnv1a* digest) override {
    // Orders 4k+3 are cast under Experiment 1, whose source (Figure 1a)
    // requires quantity < 100 and makes billTo optional: 4 of those 32 omit
    // billTo, which the target requires. 8 of the 96 Experiment 2 orders
    // carry one quantity in [100, 149].
    Rng rng(Mix(seed, 1));
    const std::vector<size_t> bad = rng.Distinct(8, 96);
    const std::vector<size_t> no_bill_to = rng.Distinct(4, 32);
    for (size_t j = 0; j < kDocs; ++j) {
      PoSpec spec;
      if (UsesExperiment1(j)) {
        spec.bill_to = !Contains(no_bill_to, j / 4);
      } else if (Contains(bad, j - j / 4)) {
        spec.bad_item = rng.Uniform(0, 999);
      }
      texts_.push_back(PurchaseOrderText(spec, Mix(seed, 2, j)));
      digest->Add(texts_.back());
    }
  }

  std::vector<SchemaSpec> Schemas() const override {
    return {{"po.relaxed", workload::kRelaxedQuantityXsd},
            {"po.fig1a", workload::kSourceXsd},
            {"po.fig2", workload::kTargetXsd}};
  }
  std::vector<std::pair<size_t, size_t>> Pairs() const override {
    return {{0, 2}, {1, 2}};
  }

  void Prepare(ValidationService* service,
               std::vector<SchemaHandle> handles) override {
    service_ = service;
    sources_[0] = handles[0];
    sources_[1] = handles[1];
    target_ = handles[2];
    for (int p = 0; p < 2; ++p) {
      relations_[p] =
          Take(service->cache().Get(sources_[p], target_), "relations");
    }
    for (std::string& text : texts_) {
      docs_.push_back(ParseBound(service, text));
      expected_.push_back(FullVerdict(service, target_, docs_.back()));
      footprint_.Add(docs_.back());
      std::string().swap(text);  // resident DOMs only from here on
    }
  }

  Outcome Run(uint64_t request, Tracer* tracer) override {
    const size_t j = request % kDocs;
    const int p = UsesExperiment1(j) ? 1 : 0;
    const Result<core::ValidationReport> report = [&] {
      Span span(tracer, "service.cast");
      return service_->Cast(sources_[p], target_, docs_[j]);
    }();
    if (tracer != nullptr && report.ok()) {
      dom_.cast.Add(*report, docs_[j].NodeCount());
    }
    return {1, !report.ok() || report->valid != expected_[j] ? 1u : 0u};
  }

  // The bare walk takes the order half the corpus away: same pair, same
  // shape, and as cold in cache as the request's own order was. Walking the
  // request's order again would find it warm and charge the cache misses
  // to service.cast.overhead_ns.
  void Siblings(uint64_t request, Tracer* tracer) override {
    const size_t j = (request + kDocs / 2) % kDocs;
    dom_.Bare(tracer, *relations_[UsesExperiment1(j) ? 1 : 0], docs_[j]);
  }

  void Layers(const MeasuredWindow& window, LayerValues* out) override {
    footprint_.Report(out);
    dom_.Report(*window.tracer, out);
  }

 private:
  static bool UsesExperiment1(size_t j) { return j % 4 == 3; }

  std::vector<std::string> texts_;
  std::vector<xml::Document> docs_;
  std::vector<bool> expected_;
  ValidationService* service_ = nullptr;
  SchemaHandle sources_[2] = {service::kInvalidSchemaHandle,
                              service::kInvalidSchemaHandle};
  SchemaHandle target_ = service::kInvalidSchemaHandle;
  RelationsPtr relations_[2];
  Footprint footprint_;
  DomCastTally dom_;
};

// ---------------------------------------------------------------------------

/// stream_cast — the streaming engine, no DOM: one request is
/// StartCastStream → Feed in 16 KiB chunks → Finish. Seven requests in
/// eight send a ~768 KB wide document whose <rec> records the target
/// subsumes (byte-skipped) with an <audit> every eighth record (validated);
/// one wide document in 16 carries an audit the target rejects. Every
/// eighth request sends the deep document: five 20,000-deep chains under a
/// non-subsumed pair, fully tokenized with 20,000 live frames. p50 lands on
/// the skip path and p99 on the tokenize/frame path. Depth stays at 20,000
/// because the FullValidator oracle recurses per level.
class StreamCast final : public Workload {
 public:
  static constexpr size_t kWideDocs = 16;
  static constexpr size_t kChunk = 16 * 1024;

  void Generate(uint64_t seed, Fnv1a* digest) override {
    Rng rng(Mix(seed, 1));
    const size_t reject = static_cast<size_t>(rng.Uniform(0, kWideDocs - 1));
    for (size_t k = 0; k < kWideDocs; ++k) {
      wide_.push_back(WideText(768 * 1024, k == reject, Mix(seed, 3, k)));
      digest->Add(wide_.back());
    }
    deep_ = DeepText(5, 20000);
    digest->Add(deep_);
  }

  std::vector<SchemaSpec> Schemas() const override {
    return {{"wide.src", kWideSourceDtd, true, {"r"}},
            {"wide.tgt", kWideTargetDtd, true, {"r"}},
            {"deep.src", kDeepSourceDtd, true, {"d"}},
            {"deep.tgt", kDeepTargetDtd, true, {"d"}}};
  }
  std::vector<std::pair<size_t, size_t>> Pairs() const override {
    return {{0, 1}, {2, 3}};
  }

  void Prepare(ValidationService* service,
               std::vector<SchemaHandle> handles) override {
    service_ = service;
    handles_ = std::move(handles);
    for (const std::string& text : wide_) {
      xml::Document doc = ParseBound(service, text);
      wide_expected_.push_back(FullVerdict(service, handles_[1], doc));
      wide_nodes_.push_back(doc.NodeCount());
    }
    xml::Document deep = ParseBound(service, deep_);
    deep_expected_ = FullVerdict(service, handles_[3], deep);
    deep_nodes_ = deep.NodeCount();
  }

  void Stage(uint64_t, Tracer*) override { session_.reset(); }

  Outcome Run(uint64_t request, Tracer* tracer) override {
    const bool deep = request % 8 == 7;
    const size_t w = (request / 8 * 7 + request % 8) % kWideDocs;
    const std::string& text = deep ? deep_ : wide_[w];
    const SchemaHandle source = handles_[deep ? 2 : 0];
    const SchemaHandle target = handles_[deep ? 3 : 1];

    Span start(tracer, "service.stream.start");
    auto opened = service_->StartCastStream(source, target);
    start.Close();
    if (!opened.ok()) return {1, 1};
    session_ = std::move(opened).value();
    int64_t feed_ns = 0;
    const std::string_view bytes(text);
    for (size_t at = 0; at < bytes.size(); at += kChunk) {
      Span feed(tracer, "service.stream.feed");
      const Status fed = session_->Feed(bytes.substr(at, kChunk));
      feed_ns += feed.Close();
      if (!fed.ok()) break;  // decided early; Finish reports the verdict
    }
    const Result<core::ValidationReport> report = [&] {
      Span span(tracer, "service.stream.finish");
      return session_->Finish();
    }();

    if (tracer != nullptr) {
      const core::StreamingReport& s = session_->streaming_report();
      Kind& kind = deep ? deep_kind_ : wide_kind_;
      kind.feed_ns += static_cast<double>(feed_ns);
      kind.bytes_fed += static_cast<double>(s.bytes_fed);
      kind.bytes_skipped += static_cast<double>(s.bytes_skipped);
      max_live_frames_ = std::max<double>(max_live_frames_, s.max_live_frames);
      peak_carry_ = std::max<double>(peak_carry_, s.peak_carry_bytes);
      if (report.ok()) cast_.Add(*report, deep ? deep_nodes_ : wide_nodes_[w]);
    }
    const bool expected = deep ? deep_expected_ : wide_expected_[w];
    return {1, !report.ok() || report->valid != expected ? 1u : 0u};
  }

  void Layers(const MeasuredWindow& window, LayerValues* out) override {
    const Tracer& tracer = *window.tracer;
    const Tracer::Totals start = tracer.Get("service.stream.start");
    const Tracer::Totals finish = tracer.Get("service.stream.finish");
    (*out)["service.stream.start_ns"] =
        Ratio(static_cast<double>(start.total_ns), start.count);
    (*out)["service.stream.finish_ns"] =
        Ratio(static_cast<double>(finish.total_ns), finish.count);
    (*out)["stream.feed.wide_ns_per_byte"] =
        Ratio(wide_kind_.feed_ns, wide_kind_.bytes_fed);
    (*out)["stream.feed.deep_ns_per_byte"] =
        Ratio(deep_kind_.feed_ns, deep_kind_.bytes_fed);
    (*out)["stream.skip.bytes_frac"] =
        Ratio(wide_kind_.bytes_skipped, wide_kind_.bytes_fed);
    (*out)["stream.max_live_frames"] = max_live_frames_;
    (*out)["stream.peak_carry_bytes"] = peak_carry_;
    cast_.Report(out);
  }

 private:
  struct Kind {
    double feed_ns = 0;
    double bytes_fed = 0;
    double bytes_skipped = 0;
  };

  std::vector<std::string> wide_;
  std::string deep_;
  std::vector<bool> wide_expected_;
  std::vector<uint64_t> wide_nodes_;
  bool deep_expected_ = true;
  uint64_t deep_nodes_ = 0;
  ValidationService* service_ = nullptr;
  std::vector<SchemaHandle> handles_;
  std::unique_ptr<ValidationService::CastStreamSession> session_;
  Kind wide_kind_;
  Kind deep_kind_;
  double max_live_frames_ = 0;
  double peak_carry_ = 0;
  CastTally cast_;
};

// ---------------------------------------------------------------------------

/// edit_stream — the only workload that writes: one request is
/// SubmitEditStream of one 16-op script on a fresh parse of the
/// 3,072-child star feed (the parse is staged outside the timer). The 96
/// scripts come in three flavours, one request in three each: in-schema
/// renames, deletes and text edits (decided safe); the same plus inserts,
/// which under simple-typed children are mostly fatal (decided fatal); and
/// a safe script ending in two renames of one node, which the analyzer's
/// same-node rule leaves undecided (ModValidator fallback). Editor apply,
/// seal and commit are a large part of a request, so a Document layout
/// change that speeds reads but slows edits shows here.
class EditStream final : public Workload {
 public:
  static constexpr size_t kChildren = 3072;
  static constexpr size_t kScripts = 96;
  static constexpr size_t kOpsPerScript = 16;

  void Generate(uint64_t seed, Fnv1a* digest) override {
    feed_ = FeedText(kChildren);
    digest->Add(feed_);
    scripts_.resize(kScripts);
    for (size_t i = 0; i < kScripts; ++i) {
      const bool entangled = i % 3 == 2;
      workload::UpdateWorkloadOptions options;
      options.seed = Mix(seed, 4, i);
      options.edit_count = entangled ? kOpsPerScript - 2 : kOpsPerScript;
      options.rename_safe_labels = {"entry", "note"};
      options.insert_safe_labels = {"entry", "note"};
      if (i % 3 != 1) options.insert_weight = 0;
      options.rename_root = false;  // one root rename re-types everything
      xml::Document scratch = Take(xml::ParseXml(feed_), "parse feed");
      xml::DocumentEditor editor(&scratch);
      std::vector<xml::EditOp>& ops = scripts_[i];
      Take(workload::ApplyRandomUpdates(&scratch, &editor, options, &ops),
           "generate edit script");
      if (entangled) {
        std::vector<xml::NodeId> live;
        for (xml::NodeId c = scratch.first_child(scratch.root());
             c != xml::kInvalidNode; c = scratch.next_sibling(c)) {
          if (scratch.IsElement(c) && !editor.IsDeleted(c)) live.push_back(c);
        }
        Rng rng(Mix(seed, 5, i));
        const xml::NodeId node = live[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(live.size()) - 1))];
        for (const char* label : {"note", "entry"}) {
          ops.push_back({xml::EditOp::Kind::kRename, node, label});
          Check(editor.Apply(ops.back()), "entangle");
        }
      }
      for (const xml::EditOp& op : ops) {
        digest->Add(static_cast<uint64_t>(op.kind));
        digest->Add(static_cast<uint64_t>(op.node));
        digest->Add(op.value);
      }
    }
  }

  std::vector<SchemaSpec> Schemas() const override {
    return {{"star", kStarDtd, true, {}}};
  }
  std::vector<std::pair<size_t, size_t>> Pairs() const override {
    return {{0, 0}};
  }
  bool UsesAnalyzer() const override { return true; }

  void Prepare(ValidationService* service,
               std::vector<SchemaHandle> handles) override {
    service_ = service;
    schema_ = handles[0];
    analyzer_ =
        Take(service->cache().GetAnalyzer(schema_, schema_), "analyzer");
    // The oracle replays each script through a plain editor, commits, and
    // fully validates the edited document.
    for (const std::vector<xml::EditOp>& ops : scripts_) {
      xml::Document doc = ParseBound(service, feed_);
      xml::DocumentEditor editor(&doc);
      for (const xml::EditOp& op : ops) Check(editor.Apply(op), "replay");
      editor.Seal();
      Check(editor.Commit(), "commit");
      expected_.push_back(FullVerdict(service, schema_, doc));
    }
    footprint_.Add(ParseBound(service, feed_));
  }

  void Stage(uint64_t, Tracer* tracer) override {
    doc_.reset();
    Span span(tracer, "stage.parse");
    doc_.emplace(Take(xml::ParseXml(feed_), "parse feed"));
    span.Close();
    Check(service_->BindDocument(&*doc_), "bind feed");
    if (tracer != nullptr) parsed_bytes_ += static_cast<double>(feed_.size());
  }

  Outcome Run(uint64_t request, Tracer* tracer) override {
    const size_t s = request % kScripts;
    const std::vector<xml::EditOp>& ops = scripts_[s];
    Span span(tracer, "service.edit_stream");
    const Result<ValidationService::EditStreamResult> result =
        service_->SubmitEditStream(schema_, schema_, &*doc_, ops);
    const double ns = static_cast<double>(span.Close());
    if (tracer != nullptr && result.ok()) {
      const double n = static_cast<double>(ops.size());
      last_short_circuited_ = result->short_circuited;
      (result->short_circuited ? short_circuit_ : fallback_).Add(ns, n);
      ++streams_;
      streams_short_circuited_ += result->short_circuited ? 1 : 0;
      ops_ += n;
      ops_unknown_ += static_cast<double>(result->stream.unknown_ops);
    }
    return {1, !result.ok() || result->report.valid != expected_[s] ? 1u : 0u};
  }

  // A plain editor session (apply, seal, commit) of the same script, and
  // for fallback scripts a bare ModValidator over its sealed index.
  void Siblings(uint64_t request, Tracer* tracer) override {
    const std::vector<xml::EditOp>& ops = scripts_[request % kScripts];
    const double n = static_cast<double>(ops.size());
    xml::Document doc = ParseBound(service_, feed_);
    xml::DocumentEditor editor(&doc);
    Span apply(tracer, "sibling.editor_apply");
    for (const xml::EditOp& op : ops) Check(editor.Apply(op), "replay");
    const xml::ModificationIndex mods = editor.Seal();
    double editor_ns = static_cast<double>(apply.Close());
    if (!last_short_circuited_) {
      Span validate(tracer, "sibling.mod_validate");
      core::ModValidator(&analyzer_->relations()).Validate(doc, mods);
      mod_validate_.Add(static_cast<double>(validate.Close()), n);
    }
    Span commit(tracer, "sibling.editor_commit");
    Check(editor.Commit(), "commit");
    editor_ns += static_cast<double>(commit.Close());
    editor_apply_.Add(editor_ns, n);
  }

  void Layers(const MeasuredWindow& window, LayerValues* out) override {
    (*out)["xml.parse.ns_per_byte"] =
        Ratio(static_cast<double>(window.tracer->Get("stage.parse").total_ns),
              parsed_bytes_);
    (*out)["xml.editor.apply_ns_per_op"] = editor_apply_.PerOp();
    (*out)["service.edit.short_circuit_ns_per_op"] = short_circuit_.PerOp();
    (*out)["service.edit.fallback_ns_per_op"] = fallback_.PerOp();
    (*out)["core.mod.ns_per_op"] = mod_validate_.PerOp();
    (*out)["analysis.short_circuit_frac"] =
        Ratio(streams_short_circuited_, streams_);
    (*out)["analysis.ops_unknown_frac"] = Ratio(ops_unknown_, ops_);
    footprint_.Report(out);
  }

 private:
  struct OpCost {
    double ns = 0;
    double ops = 0;
    void Add(double span_ns, double span_ops) {
      ns += span_ns;
      ops += span_ops;
    }
    double PerOp() const { return Ratio(ns, ops); }
  };

  std::string feed_;
  std::vector<std::vector<xml::EditOp>> scripts_;
  std::vector<bool> expected_;
  ValidationService* service_ = nullptr;
  SchemaHandle schema_ = service::kInvalidSchemaHandle;
  AnalyzerPtr analyzer_;
  std::optional<xml::Document> doc_;
  Footprint footprint_;
  double parsed_bytes_ = 0;
  bool last_short_circuited_ = true;
  OpCost short_circuit_;
  OpCost fallback_;
  OpCost editor_apply_;
  OpCost mod_validate_;
  double streams_ = 0;
  double streams_short_circuited_ = 0;
  double ops_ = 0;
  double ops_unknown_ = 0;
};

// ---------------------------------------------------------------------------

/// batch_mixed — the executor, its bounded queue and stream routing: one
/// request is a 32-item SubmitBatch, waited on through its future, to a
/// service with two batch workers that streams casts of at least 256 KiB.
/// Each batch holds 24 casts of 50-item orders (Experiment 2), 6 kValidate
/// items of 200-item orders against Figure 2, and 2 wide documents routed
/// to streaming. The only workload where requests queue behind one another.
class BatchMixed final : public Workload {
 public:
  static constexpr size_t kBatches = 64;
  // Above the 256 KiB routing threshold, small enough that a batch stays
  // a few milliseconds (thousands of batches in a run).
  static constexpr size_t kWideBatchBytes = 320 * 1024;

  void Generate(uint64_t seed, Fnv1a* digest) override {
    Rng rng(Mix(seed, 1));
    auto make_orders = [&](Pool* pool, size_t count, size_t invalid,
                           size_t items, uint64_t stream) {
      const std::vector<size_t> bad = rng.Distinct(invalid, count);
      for (size_t k = 0; k < count; ++k) {
        PoSpec spec;
        spec.items = items;
        if (Contains(bad, k)) {
          spec.bad_item = rng.Uniform(0, static_cast<int64_t>(items) - 1);
        }
        pool->texts.push_back(PurchaseOrderText(spec, Mix(seed, stream, k)));
      }
    };
    make_orders(&pools_[kCastPool], 96, 8, 50, 5);
    make_orders(&pools_[kValidatePool], 24, 4, 200, 6);
    const size_t reject = static_cast<size_t>(rng.Uniform(0, 3));
    for (size_t k = 0; k < 4; ++k) {
      pools_[kWidePool].texts.push_back(
          WideText(kWideBatchBytes, k == reject, Mix(seed, 7, k)));
    }
    for (const Pool& pool : pools_) {
      for (const std::string& text : pool.texts) digest->Add(text);
    }
    constexpr size_t kPerBatch[kPools] = {24, 6, 2};
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<ItemRef>& batch = batches_.emplace_back();
      for (size_t p = 0; p < kPools; ++p) {
        for (size_t k = 0; k < kPerBatch[p]; ++k) {
          batch.push_back({p, (b * kPerBatch[p] + k) % pools_[p].texts.size()});
        }
      }
      for (size_t k = batch.size() - 1; k > 0; --k) {
        std::swap(batch[k], batch[static_cast<size_t>(
                                rng.Uniform(0, static_cast<int64_t>(k)))]);
      }
      for (const ItemRef& item : batch) {
        digest->Add(static_cast<uint64_t>(item.pool));
        digest->Add(static_cast<uint64_t>(item.index));
      }
    }
  }

  ValidationService::Options ServiceOptions() const override {
    ValidationService::Options options;
    options.batch_threads = 2;
    options.stream_threshold_bytes = 256 * 1024;
    return options;
  }
  std::vector<SchemaSpec> Schemas() const override {
    return {{"po.relaxed", workload::kRelaxedQuantityXsd},
            {"po.fig2", workload::kTargetXsd},
            {"wide.src", kWideSourceDtd, true, {"r"}},
            {"wide.tgt", kWideTargetDtd, true, {"r"}}};
  }
  std::vector<std::pair<size_t, size_t>> Pairs() const override {
    return {{0, 1}, {2, 3}};
  }

  void Prepare(ValidationService* service,
               std::vector<SchemaHandle> handles) override {
    service_ = service;
    pools_[kCastPool].source = handles[0];
    pools_[kCastPool].target = handles[1];
    pools_[kValidatePool].op = ValidationService::BatchOp::kValidate;
    pools_[kValidatePool].target = handles[1];
    pools_[kWidePool].source = handles[2];
    pools_[kWidePool].target = handles[3];
    for (Pool& pool : pools_) {
      for (const std::string& text : pool.texts) {
        xml::Document doc = ParseBound(service, text);
        pool.expected.push_back(FullVerdict(service, pool.target, doc));
        pool.nodes.push_back(doc.NodeCount());
        if (&pool == &pools_[kCastPool]) footprint_.Add(doc);
      }
    }
  }

  void Stage(uint64_t request, Tracer*) override {
    results_.clear();
    items_.clear();
    for (const ItemRef& item : batches_[request % kBatches]) {
      const Pool& pool = pools_[item.pool];
      items_.push_back({pool.op, pool.source, pool.target,
                        pool.texts[item.index]});
    }
  }

  Outcome Run(uint64_t request, Tracer* tracer) override {
    std::future<std::vector<ValidationService::BatchItemResult>> future = [&] {
      Span span(tracer, "service.batch.submit");
      return service_->SubmitBatch(std::move(items_));
    }();
    {
      Span span(tracer, "service.batch.wait");
      results_ = future.get();
    }
    const std::vector<ItemRef>& batch = batches_[request % kBatches];
    Outcome outcome{batch.size(), 0};
    for (size_t k = 0; k < batch.size(); ++k) {
      const Pool& pool = pools_[batch[k].pool];
      const size_t index = batch[k].index;
      const ValidationService::BatchItemResult& result = results_[k];
      if (!result.status.ok() || result.report.valid != pool.expected[index]) {
        ++outcome.failed;
      } else if (tracer != nullptr &&
                 pool.op == ValidationService::BatchOp::kCast) {
        cast_.Add(result.report, pool.nodes[index]);
      }
    }
    return outcome;
  }

  void OnMeasureStart() override {
    base_ = service_->metrics().Snapshot();
    base_counters_ = service_->counters();
  }

  void Layers(const MeasuredWindow& window, LayerValues* out) override {
    const obs::MetricsSnapshot now = service_->metrics().Snapshot();
    const ValidationService::Counters counters = service_->counters();
    const obs::HistogramSnapshot wait =
        Delta(now, "xmlreval_batch_queue_wait_us");
    const obs::HistogramSnapshot served =
        Delta(now, "xmlreval_batch_service_us");
    (*out)["service.batch.queue_wait_us_mean"] = wait.Mean();
    (*out)["service.batch.queue_wait_us_p99"] = wait.Quantile(0.99);
    (*out)["service.batch.item_service_us_mean"] = served.Mean();
    (*out)["service.batch.worker_busy_frac"] =
        Ratio(static_cast<double>(served.sum) * 1e3, 2.0 * window.request_ns);
    (*out)["service.batch.stream_routed_frac"] =
        Ratio(static_cast<double>(counters.cast_streams -
                                  base_counters_.cast_streams),
              static_cast<double>(counters.batch_items -
                                  base_counters_.batch_items));
    footprint_.Report(out);
    cast_.Report(out);
  }

 private:
  struct Pool {
    std::vector<std::string> texts;
    std::vector<bool> expected;
    std::vector<uint64_t> nodes;
    ValidationService::BatchOp op = ValidationService::BatchOp::kCast;
    SchemaHandle source = service::kInvalidSchemaHandle;
    SchemaHandle target = service::kInvalidSchemaHandle;
  };
  // Item pools: DOM casts (Experiment 2), full validations (Figure 2), and
  // wide documents routed to streaming.
  enum : size_t { kCastPool, kValidatePool, kWidePool, kPools };
  struct ItemRef {
    size_t pool;
    size_t index;
  };

  /// `name`'s histogram over the measured window.
  obs::HistogramSnapshot Delta(const obs::MetricsSnapshot& now,
                               std::string_view name) const {
    obs::HistogramSnapshot delta;
    const obs::HistogramSnapshot* end = now.FindHistogram(name);
    const obs::HistogramSnapshot* begin = base_.FindHistogram(name);
    if (end == nullptr) return delta;
    delta = *end;
    if (begin == nullptr) return delta;
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= begin->buckets[i];
    }
    delta.count -= begin->count;
    delta.sum -= begin->sum;
    return delta;
  }

  Pool pools_[kPools];
  std::vector<std::vector<ItemRef>> batches_;
  ValidationService* service_ = nullptr;
  std::vector<ValidationService::BatchItem> items_;
  std::vector<ValidationService::BatchItemResult> results_;
  obs::MetricsSnapshot base_;
  ValidationService::Counters base_counters_;
  Footprint footprint_;
  CastTally cast_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "po_cast_dom") return std::make_unique<PoCastDom>();
  if (name == "corpus_recast") return std::make_unique<CorpusRecast>();
  if (name == "stream_cast") return std::make_unique<StreamCast>();
  if (name == "edit_stream") return std::make_unique<EditStream>();
  if (name == "batch_mixed") return std::make_unique<BatchMixed>();
  return nullptr;
}

}  // namespace xmlreval::bench_e2e
