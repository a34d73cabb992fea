#include "aig/cnf.h"

#include <utility>
#include <vector>

namespace dfv::aig {

// Polarity invariant (what makes one-sided encoding sound):
//
// A node needed in positive polarity may be forced TRUE by the solver
// (asserted/assumed, or implied by an ancestor's positive clauses), so the
// forward direction v -> a & b must exist; when v is never forced true the
// reverse direction alone suffices, and symmetrically.  Polarity propagates
// through fanins with the complement bit: if v = la & lb is needed in
// polarity p, fanin literal la needs polarity p flipped by la's complement.
// By induction a satisfying model therefore makes every *asserted* root's
// function really hold, even though unconstrained-direction auxiliary
// variables may disagree with their function — the trade the encoder makes
// for emitting up to half the clauses.

sat::Var CnfEncoder::varForNode(std::uint32_t node) {
  if (nodeVar_[node] >= 0) return nodeVar_[node];
  const sat::Var v = solver_.newVar();
  nodeVar_[node] = v;
  ++nodesEncoded_;
  if (node == 0) {
    // Constant-false node: pinned regardless of polarity bookkeeping.
    solver_.addClause(sat::Lit(v, true));
    ++clausesEmitted_;
    emitted_[node] = kPos | kNeg;
  }
  return v;
}

void CnfEncoder::require(std::uint32_t node, std::uint8_t polarity) {
  if (style_ == CnfStyle::kTseitin) polarity = kPos | kNeg;
  nodeVar_.resize(aig_.numNodes(), -1);  // the graph may have grown
  emitted_.resize(aig_.numNodes(), 0);
  // Worklist of (node, polarity-to-ensure).  Clause emission only needs the
  // fanin *variables* to exist (their own clauses arrive via the worklist),
  // so no readiness tracking is required; termination follows from the
  // emitted-polarity masks growing monotonically.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> work{{node, polarity}};
  while (!work.empty()) {
    const auto [n, want] = work.back();
    work.pop_back();
    const std::uint8_t missing =
        static_cast<std::uint8_t>(want & ~emitted_[n]);
    if (missing == 0) continue;
    if (n == 0 || aig_.isInputNode(n)) {
      varForNode(n);  // inputs have no implications; node 0 self-pins
      emitted_[n] |= missing;
      continue;
    }
    const sat::Var v = varForNode(n);
    const Lit a = aig_.fanin0(n);
    const Lit b = aig_.fanin1(n);
    const sat::Lit lv(v, false);
    const sat::Lit la(varForNode(nodeOf(a)), isComplemented(a));
    const sat::Lit lb(varForNode(nodeOf(b)), isComplemented(b));
    if (missing & kPos) {
      // v -> la & lb
      solver_.addClause(~lv, la);
      solver_.addClause(~lv, lb);
      clausesEmitted_ += 2;
    }
    if (missing & kNeg) {
      // la & lb -> v
      solver_.addClause(lv, ~la, ~lb);
      ++clausesEmitted_;
    }
    emitted_[n] |= missing;
    // Fanin polarity: flipped by the fanin literal's complement bit.
    auto faninPolarity = [](std::uint8_t p, Lit f) -> std::uint8_t {
      if (!isComplemented(f)) return p;
      std::uint8_t flipped = 0;
      if (p & kPos) flipped |= kNeg;
      if (p & kNeg) flipped |= kPos;
      return flipped;
    };
    work.emplace_back(nodeOf(a), faninPolarity(missing, a));
    work.emplace_back(nodeOf(b), faninPolarity(missing, b));
  }
}

sat::Lit CnfEncoder::satLit(Lit l) {
  // The literal is being asserted/assumed true: its node is needed in
  // positive polarity if the literal is plain, negative if complemented.
  require(nodeOf(l), isComplemented(l) ? kNeg : kPos);
  return sat::Lit(nodeVar_[nodeOf(l)], isComplemented(l));
}

}  // namespace dfv::aig
