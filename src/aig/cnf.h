// Clausification of AIG cones into a SAT solver.
//
// Encoding is lazy and incremental: only the cone of influence of the
// literals you ask about is clausified, and repeated calls share variables,
// so a BMC loop can keep one solver and grow the formula frame by frame
// (this sharing is what makes the paper's incremental SEC runs cheap).
//
// The default style is polarity-aware (Plaisted–Greenbaum) Tseitin: the
// encoder tracks which polarity of each node is actually reachable from the
// requested roots and emits only those implication directions.  For an AND
// node v = a & b that is only ever *asserted* (positive polarity) the
// reverse implication (a & b -> v) is dead weight — dropping it removes a
// ternary clause per node and, more importantly, halves the watch-list
// pressure the solver pays during propagation.  Nodes whose cone never
// reaches a root are never clausified at all.  The encoding remains
// equisatisfiable per requested polarity, and a model still certifies the
// asserted roots (one-sided implications force the asserted functions to
// hold; see the polarity invariant in cnf.cpp).
//
// The full two-sided Tseitin encoder is kept behind CnfStyle::kTseitin for
// differential testing (tests/aig_test.cpp proves both styles agree on
// random AIGs) and for callers that want model-faithful auxiliary
// variables.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "sat/solver.h"

namespace dfv::aig {

/// Which implication directions the encoder emits.
enum class CnfStyle {
  /// Polarity-aware Plaisted–Greenbaum (the default): only the implication
  /// directions reachable from the requested roots.
  kPlaistedGreenbaum,
  /// Classic two-sided Tseitin: both directions for every node touched.
  kTseitin,
};

/// Clausifies AIG literals into a sat::Solver on demand.
class CnfEncoder {
 public:
  CnfEncoder(const Aig& aig, sat::Solver& solver,
             CnfStyle style = CnfStyle::kPlaistedGreenbaum)
      : aig_(aig), solver_(solver), style_(style) {}

  /// SAT literal equisatisfiably representing AIG literal `l`, encoding the
  /// cone of `l` on first use.  The literal is encoded for being asserted
  /// or assumed TRUE (its positive polarity); asking later for the opposite
  /// polarity — satLit(negate(l)) — incrementally emits the missing
  /// implication directions.
  sat::Lit satLit(Lit l);

  /// Asserts that `l` is true.
  void assertTrue(Lit l) { solver_.addClause(satLit(l)); }

  sat::Solver& solver() { return solver_; }

  /// Clauses this encoder has added (telemetry: quantifies what the
  /// polarity analysis saves over two-sided Tseitin).
  std::uint64_t clausesEmitted() const { return clausesEmitted_; }
  /// Nodes that have a SAT variable.
  std::size_t nodesEncoded() const { return nodesEncoded_; }

 private:
  // Polarity bitmask per node: which directions have been emitted.
  static constexpr std::uint8_t kPos = 1;  // v -> fanins  (v asserted true)
  static constexpr std::uint8_t kNeg = 2;  // fanins -> v  (v asserted false)

  /// Ensures `node` has a SAT variable (no clauses).
  sat::Var varForNode(std::uint32_t node);
  /// Ensures the implication directions in `polarity` are emitted for the
  /// cone of `node`.
  void require(std::uint32_t node, std::uint8_t polarity);

  const Aig& aig_;
  sat::Solver& solver_;
  CnfStyle style_;
  // Per node id (AIG ids are dense), grown to the graph on demand.
  std::vector<sat::Var> nodeVar_;       // -1 = no variable yet
  std::vector<std::uint8_t> emitted_;  // directions emitted so far
  std::size_t nodesEncoded_ = 0;
  std::uint64_t clausesEmitted_ = 0;
};

}  // namespace dfv::aig
