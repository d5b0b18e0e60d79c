#include "core/string_revalidator.h"

#include <algorithm>

#include "common/macros.h"

namespace xmlreval::core {

using automata::ImmediateDfa;
using automata::ImmediateRunResult;
using automata::StateId;
using automata::Verdict;

Result<StringRevalidator> StringRevalidator::Create(const Dfa& a, const Dfa& b,
                                                    const Options& options) {
  if (a.alphabet_size() != b.alphabet_size()) {
    return Status::InvalidArgument(
        "source and target automata must share an alphabet (pad with "
        "Dfa::PaddedTo)");
  }
  StringRevalidator r;
  r.a_ = a;
  r.b_ = b;
  r.b_immed_ = ImmediateDfa::FromSingle(b);
  r.c_immed_ = ImmediateDfa::FromPair(a, b);
  if (options.enable_reverse) {
    r.a_rev_ = automata::DeterminizeNfa(a.Reverse()).Minimize();
    r.b_rev_ = automata::DeterminizeNfa(b.Reverse()).Minimize();
    r.b_rev_immed_ = ImmediateDfa::FromSingle(*r.b_rev_);
    r.c_rev_immed_ = ImmediateDfa::FromPair(*r.a_rev_, *r.b_rev_);
  }
  return r;
}

Result<StringRevalidator> StringRevalidator::CreateSingle(
    const Dfa& a, const Options& options) {
  return Create(a, a, options);
}

RevalidationResult StringRevalidator::Revalidate(
    std::span<const Symbol> s) const {
  ImmediateRunResult run = c_immed_->Run(s);
  return {run.verdict == Verdict::kAccept, run.symbols_scanned, 0,
          run.decided_early, false};
}

RevalidationResult StringRevalidator::ValidateFresh(
    std::span<const Symbol> s) const {
  ImmediateRunResult run = b_immed_->Run(s);
  return {run.verdict == Verdict::kAccept, run.symbols_scanned, 0,
          run.decided_early, false};
}

namespace {

// A symbol span in reading order: front to back, or back to front for the
// reverse automata. Reading a span backward this way is what spares the
// backward scan a reversed copy of both strings.
template <bool kReversed>
struct Reading {
  std::span<const Symbol> span;

  size_t size() const { return span.size(); }
  Symbol operator[](size_t k) const {
    return kReversed ? span[span.size() - 1 - k] : span[k];
  }
  /// The first n symbols read, and the ones read after them.
  Reading Head(size_t n) const {
    return {kReversed ? span.last(n) : span.first(n)};
  }
  Reading Tail(size_t n) const {
    return {kReversed ? span.first(span.size() - n) : span.subspan(n)};
  }
};

// §4.3's three phases in one direction: the last `unmodified` symbols read
// from new_s equal the last ones read from old_s.
template <bool kReversed>
RevalidationResult Scan(const ScanAutomata& m, Reading<kReversed> old_s,
                        Reading<kReversed> new_s, size_t unmodified) {
  RevalidationResult result;
  result.scanned_backward = kReversed;
  const size_t edited = new_s.size() - unmodified;

  // Phase 1 (§4.3 step 1): the edited head through b_immed.
  ImmediateRunResult head =
      m.b_immed->Run(new_s.Head(edited), m.b_immed->dfa().start_state());
  result.symbols_scanned = head.symbols_scanned;
  if (head.decided_early) {
    result.accepted = head.verdict == Verdict::kAccept;
    result.decided_early = true;
    return result;
  }

  // Phase 2 (step 2): a's state before the unmodified run, recovered from
  // the old string.
  const size_t old_head = old_s.size() - unmodified;
  StateId qa = m.a->start_state();
  for (size_t k = 0; k < old_head; ++k) qa = m.a->Next(qa, old_s[k]);
  result.source_symbols_scanned = old_head;

  // Phase 3 (steps 3-4): c_immed from (qa, qb) over the unmodified run.
  ImmediateRunResult run = m.c_immed->Run(
      new_s.Tail(edited),
      m.c_immed->pair_encoding().Encode(qa, head.final_state));
  result.symbols_scanned += run.symbols_scanned;
  result.accepted = run.verdict == Verdict::kAccept;
  result.decided_early = run.decided_early;
  return result;
}

}  // namespace

RevalidationResult RevalidateEdited(const ScanAutomata& forward,
                                    const ScanAutomata* backward,
                                    std::span<const Symbol> old_s,
                                    std::span<const Symbol> new_s) {
  // The common prefix, then the common suffix of what is left, so the two
  // unmodified runs never overlap (e.g. when old_s == new_s).
  const size_t limit = std::min(old_s.size(), new_s.size());
  size_t prefix = 0;
  while (prefix < limit && old_s[prefix] == new_s[prefix]) ++prefix;
  size_t suffix = 0;
  while (suffix < limit - prefix &&
         old_s[old_s.size() - 1 - suffix] == new_s[new_s.size() - 1 - suffix]) {
    ++suffix;
  }
  // b_immed reads everything outside the unmodified run, so the longer run
  // wins; ties go forward, which matches the paper's plain b_immed scan in
  // cost when nothing is unmodified.
  if (backward != nullptr && prefix > suffix) {
    return Scan<true>(*backward, {old_s}, {new_s}, prefix);
  }
  return Scan<false>(forward, {old_s}, {new_s}, suffix);
}

RevalidationResult StringRevalidator::RevalidateModifiedForward(
    std::span<const Symbol> old_s, std::span<const Symbol> new_s,
    size_t unmodified_from) const {
  const size_t unmodified = new_s.size() - std::min(unmodified_from,
                                                    new_s.size());
  XMLREVAL_CHECK(unmodified <= old_s.size(),
                 "unmodified suffix longer than the original string");
  return Scan<false>(Forward(), {old_s}, {new_s}, unmodified);
}

RevalidationResult StringRevalidator::RevalidateModified(
    std::span<const Symbol> old_s, std::span<const Symbol> new_s) const {
  if (!b_rev_immed_) return RevalidateEdited(Forward(), nullptr, old_s, new_s);
  const ScanAutomata backward{&*c_rev_immed_, &*b_rev_immed_, &*a_rev_};
  return RevalidateEdited(Forward(), &backward, old_s, new_s);
}

}  // namespace xmlreval::core
