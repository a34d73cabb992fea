// SAT sweeping ("fraiging", after Mishchenko et al., "FRAIGs: a unifying
// representation for logic synthesis and verification", 2005): proves and
// merges semantically equivalent nodes inside an AIG cone so downstream SAT
// queries see a smaller graph.
//
// Pipeline (see DESIGN.md for the full walkthrough):
//   1. Seeded random simulation assigns every cone node a 64-bit-parallel
//      signature; nodes with equal signatures (up to complement) form
//      candidate equivalence classes.  Each input's stimulus is a hash of
//      (seed, input position, word), so a graph's sweep depends only on its
//      structure, never on node ids outside it.
//   2. Candidates are proved or refuted with incremental sat::Solver calls
//      under a per-candidate Budget.  Proven pairs are merged (complement
//      handled by literal inversion) while the graph is rebuilt bottom-up
//      through structural hashing, so merges cascade.
//   3. Counterexamples from refuted candidates are appended as new
//      simulation vectors, splitting every class they distinguish.
//   4. Budget-expired candidates are left unmerged: the pass only ever
//      rewrites a node to a proven-equivalent literal, so it is sound
//      regardless of budgets.
//
// One call sweeps one cone.  The SEC miter sweeps each distinct frame delta
// once, in a frame-local solver, and replays the result for every later
// delta that equals it (aig/frame.h).
//
// Only *unconditional* equivalences are merged: candidate proofs run under
// no assumption but the candidate itself, so in a solver that holds none of
// the caller's facts the rewritten cone is equivalent under every input
// assignment and counterexample replay stays exact.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "aig/cnf.h"
#include "sat/solver.h"

namespace dfv::aig {

/// Tuning knobs for a Fraig run.  Defaults are deterministic.
struct FraigOptions {
  /// PRNG seed for the simulation vectors (fixed => reproducible runs).
  std::uint64_t seed = 0x5eedf00dULL;
  /// 64-bit words of random stimulus per round.
  std::uint32_t simWords = 4;
  /// Rounds of random stimulus: every node is simulated on simWords *
  /// simRounds words before the first proof.
  std::uint32_t simRounds = 3;
  /// Per-candidate SAT budget.  Zero fields mean "no cap".
  sat::Budget candidateBudget{/*maxConflicts=*/200, /*maxPropagations=*/0,
                              /*maxSeconds=*/0.0};
};

/// Counters from one Fraig run.
struct FraigStats {
  std::size_t nodesBefore = 0;    ///< AND nodes swept (the cone)
  std::size_t nodesAfter = 0;     ///< AND nodes in the rebuilt roots' cone
  std::size_t mergedNodes = 0;    ///< SAT-proven + cascaded strash merges
  std::size_t provenEquiv = 0;    ///< candidate pairs proved equivalent
  std::size_t refuted = 0;        ///< candidate pairs refuted (cex fed back)
  std::size_t budgetExpired = 0;  ///< candidate pairs left unresolved
  std::uint64_t satCalls = 0;     ///< incremental solve() calls made
  std::uint64_t conflicts = 0;    ///< solver conflicts the proofs spent
  std::uint64_t decisions = 0;    ///< solver decisions the proofs spent
  std::uint64_t propagations = 0; ///< solver propagations the proofs spent
  /// The caller's overall budget ran out mid-sweep: the remaining
  /// candidates were left unmerged (sound) and the caller's phase is over.
  bool budgetExhausted = false;
  double seconds = 0.0;           ///< wall time of the whole pass
};

/// SAT sweeping over the cone of a set of root literals.
class Fraig {
 public:
  /// The old-literal -> new-literal mapping into the rebuilt graph.
  struct Result {
    std::vector<Lit> roots;  ///< map of the requested roots, in order
    FraigStats stats;

    /// Maps an old-graph literal into the rebuilt graph.  Every input of
    /// the old graph is mapped (whether in the cone or not), as is every
    /// node in the cone of the requested roots.
    Lit map(Lit old) const {
      DFV_CHECK_MSG(isMapped(old), "literal " << old << " not in fraig cone");
      return nodeMap[nodeOf(old)] ^ static_cast<Lit>(isComplemented(old));
    }
    bool isMapped(Lit old) const {
      return nodeOf(old) < nodeMap.size() &&
             nodeMap[nodeOf(old)] != kUnmapped;
    }

    /// Per old node: its literal in the rebuilt graph, or kUnmapped.
    static constexpr Lit kUnmapped = 0xffffffffu;
    std::vector<Lit> nodeMap;
  };

  explicit Fraig(FraigOptions options = {}) : options_(options) {}

  /// Sweeps the cone of `roots` in `src`, rebuilding it into the
  /// caller-owned graph behind `enc` (which must be empty — node 0 only),
  /// after recreating every input of `src` in id order.  Proofs run
  /// through `enc`'s solver, so a caller that solves over the rebuilt cone
  /// on that solver inherits the proven-equivalence units.  Each candidate
  /// proof runs under the smaller of candidateBudget and what the call has
  /// left of `budget`; when `budget` runs out the rest of the cone is
  /// rebuilt without proofs and stats.budgetExhausted is set.
  Result run(const Aig& src, const std::vector<Lit>& roots, Aig& out,
             CnfEncoder& enc, const sat::Budget& budget = {}) const;

 private:
  FraigOptions options_;
};

}  // namespace dfv::aig
