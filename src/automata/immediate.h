// Immediate decision automata (§4.1, Definitions 6–8).
//
// An ImmediateDfa is a complete DFA whose states are classified as normal,
// immediate-accept (IA) or immediate-reject (IR). Running it over a string
// stops — with a verdict — as soon as an IA or IR state is entered; the
// verdict after a full scan is the usual acceptance test. Per Proposition 3
// the derived pair automaton c_immed is optimal: no deterministic immediate
// decision automaton for L(a) ∩ L(b) can decide any string earlier.
//
// Two constructions:
//   * FromSingle(b): IA = states with L(q) = Σ* (universal), IR = states
//     with L(q) = ∅ (co-dead). This is b_immed of §4.3.
//   * FromPair(a, b): the intersection automaton, with IA = pairs where
//     L_a(qa) ⊆ L_b(qb) (Definitions 7/8) and IR = its dead states. This is
//     c_immed; used when the input is known to be in L(a).

#ifndef XMLREVAL_AUTOMATA_IMMEDIATE_H_
#define XMLREVAL_AUTOMATA_IMMEDIATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.h"
#include "automata/product.h"

namespace xmlreval::automata {

enum class StateClass : uint8_t {
  kNormal,
  kImmediateAccept,
  kImmediateReject,
};

enum class Verdict : uint8_t { kAccept, kReject };

/// Outcome of running an immediate decision automaton.
struct ImmediateRunResult {
  Verdict verdict;
  /// Symbols consumed before the verdict (== input length when no
  /// immediate state was hit). The optimality metric of Proposition 3.
  size_t symbols_scanned;
  /// Whether the verdict came from an IA/IR state rather than end-of-input.
  bool decided_early;
  /// State reached when the run ended (the IA/IR state for early verdicts).
  StateId final_state;
};

class ImmediateDfa {
 public:
  /// b_immed: early verdicts from universality/deadness of b's states.
  static ImmediateDfa FromSingle(const Dfa& b);

  /// c_immed: intersection automaton of a and b with IA per Definition 7
  /// (computed via the equivalent Definition 8) and IR = dead states.
  /// Exposes the pair encoding so callers can resume from (qa, qb).
  static ImmediateDfa FromPair(const Dfa& a, const Dfa& b);

  /// Runs over `input` starting from `from`, stopping at the first IA/IR
  /// state (including `from` itself, before consuming any symbol). `input`
  /// is any sequence of symbols with size() and operator[]: a span, or
  /// the back-to-front view §4.3's backward scan reads a span through.
  template <typename Symbols>
  ImmediateRunResult Run(const Symbols& input, StateId from) const {
    StateId q = from;
    size_t scanned = 0;
    while (true) {
      StateClass cls = classes_[q];
      if (cls == StateClass::kImmediateAccept) {
        return {Verdict::kAccept, scanned, true, q};
      }
      if (cls == StateClass::kImmediateReject) {
        return {Verdict::kReject, scanned, true, q};
      }
      if (scanned == input.size()) break;
      q = dfa_.Next(q, input[scanned]);
      ++scanned;
    }
    return {dfa_.IsAccepting(q) ? Verdict::kAccept : Verdict::kReject,
            scanned, false, q};
  }
  ImmediateRunResult Run(std::span<const Symbol> input) const {
    return Run(input, dfa_.start_state());
  }

  const Dfa& dfa() const { return dfa_; }
  StateClass Class(StateId q) const { return classes_[q]; }
  size_t CountClass(StateClass c) const;

  /// Raw classification view, one byte per state (serialization).
  const StateClass* classes_data() const { return classes_; }

  /// Pair encoding for FromPair-built automata (nb == 0 for FromSingle).
  const PairEncoding& pair_encoding() const { return encoding_; }
  bool is_pair() const { return encoding_.nb != 0; }

  ImmediateDfa(const ImmediateDfa& other)
      : dfa_(other.dfa_),
        classes_store_(other.classes_store_),
        encoding_(other.encoding_) {
    classes_ = classes_store_.empty() ? other.classes_ : classes_store_.data();
  }
  ImmediateDfa& operator=(const ImmediateDfa& other) {
    if (this == &other) return *this;
    dfa_ = other.dfa_;
    classes_store_ = other.classes_store_;
    encoding_ = other.encoding_;
    classes_ = classes_store_.empty() ? other.classes_ : classes_store_.data();
    return *this;
  }
  // Vector moves keep the heap buffer, so the classes_ view stays valid.
  ImmediateDfa(ImmediateDfa&&) noexcept = default;
  ImmediateDfa& operator=(ImmediateDfa&&) noexcept = default;

 private:
  friend class ImmediateDfaCodec;

  ImmediateDfa(Dfa dfa, std::vector<StateClass> classes, PairEncoding enc)
      : dfa_(std::move(dfa)), classes_store_(std::move(classes)),
        encoding_(enc) {
    classes_ = classes_store_.data();
  }
  /// Borrowed-classification constructor (plan cache): `classes` aliases
  /// caller-managed memory (one byte per state) that must outlive the
  /// automaton and all its copies.
  ImmediateDfa(Dfa dfa, const StateClass* classes, PairEncoding enc)
      : dfa_(std::move(dfa)), classes_(classes), encoding_(enc) {}

  Dfa dfa_;
  std::vector<StateClass> classes_store_;  // empty when borrowed
  const StateClass* classes_ = nullptr;
  PairEncoding encoding_{0};
};

}  // namespace xmlreval::automata

#endif  // XMLREVAL_AUTOMATA_IMMEDIATE_H_
