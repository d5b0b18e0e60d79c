#include "automata/immediate.h"

namespace xmlreval::automata {

ImmediateDfa ImmediateDfa::FromSingle(const Dfa& b) {
  std::vector<bool> universal = b.UniversalStates();
  std::vector<bool> dead = b.CoDeadStates();
  std::vector<StateClass> classes(b.num_states(), StateClass::kNormal);
  for (StateId q = 0; q < b.num_states(); ++q) {
    if (universal[q]) {
      classes[q] = StateClass::kImmediateAccept;
    } else if (dead[q]) {
      classes[q] = StateClass::kImmediateReject;
    }
  }
  return ImmediateDfa(b, std::move(classes), PairEncoding{0});
}

ImmediateDfa ImmediateDfa::FromPair(const Dfa& a, const Dfa& b) {
  Dfa c = ProductOf(a, b);
  // IA per Definition 8: pairs from which every reachable (q1, q2) with
  // q1 ∈ F_a has q2 ∈ F_b — exactly the state-containment table.
  std::vector<bool> ia = StateContainmentTable(a, b);
  // IR: dead states of the intersection automaton (no F_a × F_b reachable).
  std::vector<bool> ir = c.CoDeadStates();
  std::vector<StateClass> classes(c.num_states(), StateClass::kNormal);
  for (StateId q = 0; q < c.num_states(); ++q) {
    if (ia[q]) {
      classes[q] = StateClass::kImmediateAccept;
    } else if (ir[q]) {
      classes[q] = StateClass::kImmediateReject;
    }
  }
  PairEncoding enc{b.num_states()};
  return ImmediateDfa(std::move(c), std::move(classes), enc);
}

size_t ImmediateDfa::CountClass(StateClass c) const {
  size_t n = 0;
  for (size_t q = 0; q < dfa_.num_states(); ++q) {
    if (classes_[q] == c) ++n;
  }
  return n;
}

}  // namespace xmlreval::automata
