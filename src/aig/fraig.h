// SAT sweeping ("fraiging", after the FRAIG/ABC line of work): proves and
// merges semantically equivalent nodes inside an AIG cone so downstream SAT
// queries see a smaller graph.
//
// Pipeline (see DESIGN.md for the full walkthrough):
//   1. Seeded random simulation assigns every cone node a 64-bit-parallel
//      signature; nodes with equal signatures (up to complement) form
//      candidate equivalence classes.  Each input's stimulus is a hash of
//      (seed, input id, word), so it does not depend on when the input
//      first enters a cone.
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
// A Fraig::Session keeps the rebuilt graph, the signatures and the classes
// across calls, so a BMC loop sweeps only each depth's new nodes and a new
// node can still merge into a representative from an earlier depth.
//
// Only *unconditional* equivalences are merged — the pass never assumes the
// caller's asserted constraints, so the rewritten cone is equivalent under
// every input assignment and counterexample replay stays exact.  Candidate
// proofs run under no assumption but the candidate itself: a caller sharing
// the solver must add its own facts only behind an activation literal that
// its own solves assume (see the SEC miter).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
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
  /// simRounds words, a fixed amount so that nodes swept in different
  /// Session::extend calls compare on the same vectors.
  std::uint32_t simRounds = 3;
  /// Per-candidate SAT budget.  Zero fields mean "no cap".
  sat::Budget candidateBudget{/*maxConflicts=*/200, /*maxPropagations=*/0,
                              /*maxSeconds=*/0.0};
};

/// Counters from one Fraig run (or one Session::extend).
struct FraigStats {
  std::size_t nodesBefore = 0;    ///< AND nodes swept (the cone or delta)
  std::size_t nodesAfter = 0;     ///< AND nodes added to the roots' cone
  std::size_t mergedNodes = 0;    ///< SAT-proven + cascaded strash merges
  std::size_t provenEquiv = 0;    ///< candidate pairs proved equivalent
  std::size_t refuted = 0;        ///< candidate pairs refuted (cex fed back)
  std::size_t budgetExpired = 0;  ///< candidate pairs left unresolved
  std::uint64_t satCalls = 0;     ///< incremental solve() calls made
  std::uint64_t conflicts = 0;    ///< solver conflicts the proofs spent
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

  /// An incremental sweep over a growing source graph.  The rebuilt graph,
  /// the node map, every swept node's signature and the candidate classes
  /// persist across extend() calls; each call sweeps only the cone of its
  /// new roots that no earlier call swept.  Counterexample vectors extend
  /// every swept node's signature, so old representatives stay comparable.
  class Session {
   public:
    /// Sweeps into the caller-owned graph behind `enc` (which must be
    /// empty — node 0 only); both must outlive the session.  Proofs run
    /// through `enc`'s solver, so the caller's subsequent solves over the
    /// rebuilt cone inherit everything the sweep learned: the clausified
    /// cone, the proven-equivalence units, the learnt clauses, variable
    /// activity, and saved phases.  That reuse is what makes
    /// sweep-then-solve cheaper than solving the original miter, not just
    /// smaller.
    Session(FraigOptions options, Aig& out, CnfEncoder& enc);

    /// Sweeps the delta for `newRoots` (literals of `src`, which must be
    /// the same graph every call, only grown), after recreating every
    /// source input not yet mapped, in id order.  Each candidate proof runs
    /// under the smaller of candidateBudget and what this call has left of
    /// `budget`; when `budget` runs out the rest of the delta is rebuilt
    /// without proofs and stats.budgetExhausted is set.  Returns the
    /// cumulative node map, this call's mapped roots and its stats.
    const Result& extend(const Aig& src, const std::vector<Lit>& newRoots,
                         const sat::Budget& budget = {});

    /// The cumulative map after the last extend().
    const Result& result() const { return res_; }

   private:
    using Sig = std::vector<std::uint64_t>;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    std::uint64_t inputWord(std::uint32_t input, std::size_t word) const;
    bool phaseOf(std::uint32_t n) const { return (sigs_[n][0] & 1ULL) != 0; }
    bool sigsEqual(std::uint32_t a, std::uint32_t b, bool invert) const;
    /// Candidate class of a freshly simulated node (created if new).
    std::uint32_t classify(std::uint32_t n);
    /// Appends the solver's last model as one simulation vector.
    void appendCex();

    FraigOptions options_;
    Aig& out_;
    CnfEncoder& enc_;
    Result res_;
    std::size_t inputsMapped_ = 0;  ///< prefix of src.inputs() mapped
    /// Swept nodes get dense indices in sweep (= topological) order.
    std::vector<std::uint32_t> dense_;  ///< per source node, or kNone
    std::vector<std::uint32_t> order_;  ///< per dense index: source node
    /// Per dense node: fan-ins as dense index * 2 + complement (kNone for
    /// inputs and the constant).
    std::vector<std::uint32_t> fan0_, fan1_;
    std::vector<std::pair<std::uint32_t, sat::Lit>> sweptInputs_;
    /// Per source node: the random words and the completed cex words.
    std::vector<Sig> sigs_;
    /// Per dense node: the partial cex word (cexBits_ % 64 valid bits).
    std::vector<std::uint64_t> partial_;
    std::size_t cexBits_ = 0;  ///< vectors appended after the random ones
    /// Per class: the live merge targets, in sweep order.
    std::vector<std::vector<std::uint32_t>> reps_;
    /// Random-signature hash -> classes whose first member has it.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
    std::vector<std::uint32_t> classHead_;  ///< per class: its first member
  };

  explicit Fraig(FraigOptions options = {}) : options_(options) {}

  /// Sweeps the cone of `roots` in `src`, rebuilding it into the
  /// caller-owned graph behind `enc` (which must be empty — node 0 only).
  /// Equivalent to one extend() of a fresh Session.
  Result run(const Aig& src, const std::vector<Lit>& roots, Aig& out,
             CnfEncoder& enc) const;

 private:
  FraigOptions options_;
};

}  // namespace dfv::aig
