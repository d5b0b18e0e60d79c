#include "core/streaming_validator.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/cast_kernel.h"
#include "xml/push_parser.h"

namespace xmlreval::core {

using automata::Symbol;
using internal::CastKernel;
using internal::PairAction;

namespace {

// The handler aborts the parse on a validity violation by returning this
// sentinel; Finalize translates it into report.valid = false. Genuine
// well-formedness errors keep their parse-error status and message.
Status Abort() { return Status::InvalidArgument("__xmlreval_invalid__"); }

bool IsAbortStatus(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument &&
         status.message() == "__xmlreval_invalid__";
}

// The event driver of the §3.2 kernel. Events arrive in document order, so
// an element's content run is stepped as each child starts and ended when
// the element closes; one frame per open element that needs checking. A
// subsumed subtree is handed to the parser's raw-byte skip scanner and opens
// no frame.
class CastHandler : public xml::SaxHandler {
 public:
  CastHandler(const TypeRelations& rel, StreamingReport* report)
      : k_(rel, /*immediate=*/true), report_(report) {}

  void AttachParser(xml::PushParser* parser) { parser_ = parser; }

  const ValidationCounters& counters() const { return k_.counters; }

  Status StartElement(std::string_view name,
                      const std::vector<xml::SaxAttribute>& attributes)
      override {
    const std::optional<Symbol> found = k_.source.alphabet()->Find(name);
    const Symbol sym = found ? *found : automata::kUnboundSymbol;
    TypeId s_type = schema::kInvalidType;
    TypeId t_type = schema::kInvalidType;
    uint32_t ordinal = 0;
    if (frames_.empty()) {
      const CastUnitKind typing = k_.TypeRoot(sym, &s_type, &t_type);
      if (typing != CastUnitKind::kPrecondition) k_.CountElement();
      if (typing != CastUnitKind::kValidate) {
        return FailParent(CastKernel::RootMessage(typing, name));
      }
    } else {
      Frame& parent = frames_.back();
      ordinal = parent.next_child++;
      // Typing is pure, so it runs up front; its failures are reported in
      // event order: Σ membership, the target's typing, the parent's
      // content step, the source's typing.
      const CastUnitKind typing =
          k_.TypeChild(parent.s_type, parent.t_type, sym, &s_type, &t_type);
      if (typing == CastUnitKind::kUnboundLabel) {
        return FailParent(CastKernel::UnboundMessage(name));
      }
      k_.CountElement();
      if (typing == CastUnitKind::kContentMismatch) return ContentFail(parent);
      if (!parent.content.decided && !k_.StepContent(&parent.content, sym)) {
        return ContentFail(parent);
      }
      if (typing == CastUnitKind::kPrecondition) {
        return FailParent(k_.PreconditionMessage(parent.s_type, name));
      }
    }

    switch (k_.Enter(s_type, t_type)) {
      case PairAction::kSkip:
        // R_sub: any fragment valid under s_type is valid under t_type, so
        // the subtree's bytes cannot affect the verdict — skip-scan them.
        parser_->SkipCurrentSubtree();
        return Status::OK();
      case PairAction::kReject:
        return FailSelf(k_.PairRejectMessage(name, s_type, t_type), ordinal);
      case PairAction::kCheck:
        break;
    }

    Frame frame{sym, ordinal, 0, s_type, t_type, k_.target.IsSimple(t_type),
                {}};
    if (frame.t_simple) {
      text_.clear();
    } else {
      if (!k_.AttributesOk(t_type, attributes)) {
        return FailSelf(k_.DetailMessage(name), ordinal);
      }
      if (!k_.StartContent(s_type, t_type, &frame.content)) {
        frames_.push_back(frame);  // so ContentFail names it
        return ContentFail(frames_.back());
      }
    }
    frames_.push_back(frame);
    report_->max_live_frames =
        std::max<uint64_t>(report_->max_live_frames, frames_.size());
    return Status::OK();
  }

  Status Characters(std::string_view text) override {
    // Text under a complex target type is whitespace by the source-validity
    // precondition; not even inspected (mirrors CastWalk).
    if (frames_.back().t_simple) {
      k_.CountText();
      text_.append(text);
    }
    return Status::OK();
  }

  Status EndElement(std::string_view) override {
    const Frame& frame = frames_.back();
    if (frame.t_simple) {
      if (!k_.SimpleValueOk(frame.t_type, text_)) {
        return FailParent(k_.DetailMessage(Name(frame.sym)));
      }
    } else if (!CastKernel::EndContent(frame.content)) {
      return ContentFail(frame);
    }
    frames_.pop_back();
    return Status::OK();
  }

 private:
  struct Frame {
    Symbol sym;           // interned symbol (label for diagnostics)
    uint32_t ordinal;     // index among the parent's children
    uint32_t next_child;  // ordinal the next child will get
    TypeId s_type;
    TypeId t_type;
    bool t_simple;
    internal::ContentRun content;  // complex target types only
  };

  const std::string& Name(Symbol sym) const {
    return k_.source.alphabet()->Name(sym);
  }

  Status Fail(std::string message) {
    report_->valid = false;
    report_->violation = std::move(message);
    return Abort();
  }

  // The Dewey path of frames_.back() — also the path of the PARENT when
  // the failing child has not been pushed as a frame, which is exactly the
  // blame convention for content-model, alphabet and precondition
  // failures (mirrors CastWalk).
  void SetPathToTopFrame() {
    report_->violation_path_known = true;
    report_->violation_path.clear();
    for (size_t i = 1; i < frames_.size(); ++i) {
      report_->violation_path.push_back(frames_[i].ordinal);
    }
  }

  /// Blames the top frame (or the whole document when no frame exists).
  Status FailParent(std::string message) {
    SetPathToTopFrame();
    return Fail(std::move(message));
  }

  /// Blames the element being started, which has no frame yet; `ordinal`
  /// is its index under frames_.back() (ignored at the root: ε).
  Status FailSelf(std::string message, uint32_t ordinal) {
    SetPathToTopFrame();
    if (!frames_.empty()) report_->violation_path.push_back(ordinal);
    return Fail(std::move(message));
  }

  Status ContentFail(const Frame& frame) {
    SetPathToTopFrame();
    return Fail(k_.ContentMessage(Name(frame.sym), frame.t_type));
  }

  CastKernel k_;
  StreamingReport* report_;
  xml::PushParser* parser_ = nullptr;
  std::vector<Frame> frames_;
  // χ of the open simple-typed element. Only the top frame can be simple:
  // a simple target type types no child, so a child under it fails.
  std::string text_;
};

}  // namespace

struct StreamingCastSession::Impl {
  StreamingReport report;
  CastHandler handler;
  xml::PushParser parser;
  bool done = false;
  Status status;  // the deciding status returned by Feed/after done

  explicit Impl(const TypeRelations& relations)
      : handler(relations, &report), parser(&handler) {
    handler.AttachParser(&parser);
  }

  void Finalize(const Status& underlying) {
    done = true;
    report.counters = handler.counters();
    report.bytes_fed = parser.bytes_fed();
    report.bytes_skipped = parser.bytes_skipped();
    report.peak_carry_bytes = parser.peak_carry_bytes();
    if (!underlying.ok() && report.valid) {
      // Well-formedness failure: surface the parse error as the violation.
      report.valid = false;
      report.violation = underlying.ToString();
    }
    if (underlying.ok()) {
      status = Status::OK();
    } else if (IsAbortStatus(underlying)) {
      // Surface the violation, not the internal abort sentinel.
      status = Status::InvalidArgument(report.violation);
    } else {
      status = underlying;
    }
  }
};

StreamingCastSession::StreamingCastSession(const TypeRelations& relations)
    : impl_(std::make_unique<Impl>(relations)) {}

StreamingCastSession::~StreamingCastSession() = default;

Status StreamingCastSession::Feed(std::string_view chunk) {
  if (impl_->done) return impl_->status;
  Status status = impl_->parser.Feed(chunk);
  if (!status.ok()) impl_->Finalize(status);
  return impl_->done ? impl_->status : Status::OK();
}

const StreamingReport& StreamingCastSession::Finish() {
  if (!impl_->done) impl_->Finalize(impl_->parser.Finish());
  return impl_->report;
}

bool StreamingCastSession::done() const { return impl_->done; }

const Status& StreamingCastSession::status() const { return impl_->status; }

}  // namespace xmlreval::core
