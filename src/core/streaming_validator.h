// Streaming schema-cast validation — the paper's memory claim realized.
//
// §7: "Unlike schemes that preprocess documents ... the memory requirement
// of our algorithm does not vary with the size of the document, but
// depends solely on the sizes of the schemas." StreamingCastSession runs
// §3.2's cast over the incremental PushParser, so no DOM is ever built:
// chunks are Fed as they arrive (pipe, socket), a multi-GB document is
// validated without ever being resident, and live state is one frame per
// OPEN element that needs checking (O(document depth)) plus the parser's
// bounded carry buffer and the preprocessed schema structures. It is the
// event driver of the same per-element kernel the DOM validators use
// (core/cast_kernel.h):
//
//   * a subsumed (source, target) pair hands the subtree's bytes to the
//     raw-byte SkipScanner — not even tokenized;
//   * a disjoint pair aborts the parse immediately via the handler-status
//     channel.
//
// It backs ValidationService::CastStream and `xmlreval cast --stream`.
// Reports carry the usual counters plus max_live_frames, the peak element
// stack depth, and byte accounting (bytes_fed / bytes_skipped /
// peak_carry_bytes).

#ifndef XMLREVAL_CORE_STREAMING_VALIDATOR_H_
#define XMLREVAL_CORE_STREAMING_VALIDATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/relations.h"
#include "core/report.h"

namespace xmlreval::core {

struct StreamingReport {
  bool valid = true;
  std::string violation;
  /// Dewey path (0-based child ordinals from the root) of the blamed
  /// element for cast violations; meaningful only when
  /// violation_path_known (parse errors have no node to blame). NOTE:
  /// streaming interleaves content-model steps with descent, so on a
  /// document with several independent violations the FIRST one found —
  /// and hence the blamed node — can differ from the DOM CastValidator's,
  /// whose walk finishes a parent's content pass before expanding
  /// children. Verdicts always agree.
  bool violation_path_known = false;
  std::vector<uint32_t> violation_path;
  ValidationCounters counters;
  /// Peak number of simultaneously open elements tracked — the live-memory
  /// metric (the DOM equivalent is the total node count). Subtrees handed
  /// to the raw-byte skip scanner contribute no frames.
  uint64_t max_live_frames = 0;
  /// Byte accounting.
  uint64_t bytes_fed = 0;
  uint64_t bytes_skipped = 0;
  uint64_t peak_carry_bytes = 0;
};

/// Incremental schema-cast validation: feed chunks as they arrive. Live
/// memory is O(document depth) frames + the parser's bounded carry buffer,
/// independent of document size. The caller must keep `relations` (and
/// the schemas it references) alive for the session's lifetime.
///
///   StreamingCastSession session(relations);
///   while (read(chunk)) {
///     if (!session.Feed(chunk).ok()) break;   // verdict already decided
///   }
///   const StreamingReport& report = session.Finish();
class StreamingCastSession {
 public:
  explicit StreamingCastSession(const TypeRelations& relations);
  ~StreamingCastSession();
  StreamingCastSession(const StreamingCastSession&) = delete;
  StreamingCastSession& operator=(const StreamingCastSession&) = delete;

  /// Consumes the next chunk. Returns OK while the verdict is still open;
  /// once it is decided (violation, disjoint reject, malformed input) the
  /// deciding status is returned and later Feeds are no-ops returning the
  /// same status. Callers may stop feeding at the first non-OK.
  Status Feed(std::string_view chunk);

  /// Ends the input and returns the final report. Idempotent; the
  /// reference stays valid for the session's lifetime.
  const StreamingReport& Finish();

  /// True once the verdict is decided (Finish called or early abort).
  bool done() const;

  /// The deciding status, meaningful once done(): OK for a valid document,
  /// kInvalidArgument carrying the violation for a cast rejection, the
  /// parse/unsupported error otherwise. Lets callers distinguish "the
  /// document is not castable" from "the bytes were not XML".
  const Status& status() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xmlreval::core

#endif  // XMLREVAL_CORE_STREAMING_VALIDATOR_H_
