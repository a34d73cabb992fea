// A CDCL SAT solver (the decision engine under the sequential equivalence
// checker).
//
// The paper's methodology relies on a commercial sequential equivalence
// checker; this solver is the from-scratch substrate that powers our
// re-implementation (src/sec).  Standard architecture:
//   * two-watched-literal unit propagation,
//   * first-UIP conflict analysis with clause learning and
//     non-chronological backjumping,
//   * EVSIDS variable activity with phase saving,
//   * Luby-sequence restarts,
//   * LBD-based learnt-clause database reduction,
//   * incremental solving under assumptions (solve() can be called many
//     times with different assumption sets over the same clause set — this
//     is what makes the paper's §4.1 "incremental SEC runs" cheap).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/check.h"

namespace dfv::sat {

/// A propositional variable (0-based index).
using Var = std::int32_t;

/// A literal: variable + sign, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {
    DFV_CHECK_MSG(v >= 0, "negative variable");
  }

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  Lit operator~() const { return fromCode(code_ ^ 1); }
  std::int32_t code() const { return code_; }
  static Lit fromCode(std::int32_t c) {
    Lit l;
    l.code_ = c;
    return l;
  }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

 private:
  std::int32_t code_;
};

/// Ternary logic value.
enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

inline LBool lboolOf(bool b) { return b ? LBool::kTrue : LBool::kFalse; }

/// Outcome of a solve() call.  kUnknown is only possible when a Budget was
/// given and a cap expired before the search concluded.
enum class Result { kSat, kUnsat, kUnknown };

/// Per-call resource caps.  Each cap of value zero means "no cap"; negative
/// caps are a contract violation (validate() throws dfv::CheckError — they
/// used to behave as "already exhausted" in some paths and "unlimited" in
/// others).  When any cap expires mid-search, solve() backtracks to
/// decision level 0 and returns Result::kUnknown; the solver (including
/// everything learnt so far) remains valid for further
/// addClause()/solve() calls.
struct Budget {
  std::int64_t maxConflicts = 0;      ///< conflicts within this call
  std::int64_t maxPropagations = 0;   ///< propagations within this call
  double maxSeconds = 0.0;            ///< wall-clock for this call

  bool unlimited() const {
    return maxConflicts == 0 && maxPropagations == 0 && maxSeconds <= 0.0;
  }
  /// Rejects negative caps (and NaN wall caps).  Called on every budgeted
  /// solve entry; construction sites that compute caps arithmetically
  /// (retry-ladder scaling) rely on this to fail loudly instead of
  /// wrapping into "unlimited" or "already exhausted".
  void validate() const {
    DFV_CHECK_MSG(maxConflicts >= 0,
                  "negative conflict cap " << maxConflicts);
    DFV_CHECK_MSG(maxPropagations >= 0,
                  "negative propagation cap " << maxPropagations);
    DFV_CHECK_MSG(maxSeconds >= 0.0,  // NaN fails this comparison too
                  "negative or NaN wall cap");
  }
};

/// Solver statistics (cumulative across solve() calls).
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learntClauses = 0;
  std::uint64_t deletedClauses = 0;
};

/// CDCL SAT solver with assumption-based incremental interface.  The
/// search has one fixed configuration and no RNG: a fresh variable starts
/// with phase false and activity zero, so two Solvers fed the same clauses
/// and calls take the same path whatever other threads do.
class Solver {
 public:
  Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  ~Solver();

  /// Allocates a fresh variable.
  Var newVar();
  std::size_t numVars() const { return assigns_.size(); }

  /// Adds a clause (disjunction of lits).  Returns false if the formula is
  /// already unsatisfiable at the root level.
  bool addClause(std::vector<Lit> lits);
  bool addClause(Lit a) { return addClause(std::vector<Lit>{a}); }
  bool addClause(Lit a, Lit b) { return addClause(std::vector<Lit>{a, b}); }
  bool addClause(Lit a, Lit b, Lit c) {
    return addClause(std::vector<Lit>{a, b, c});
  }

  /// Decides satisfiability under the given assumptions.
  Result solve(const std::vector<Lit>& assumptions = {}) {
    return solve(assumptions, Budget{});
  }

  /// Decides satisfiability under the given assumptions and resource caps.
  /// Returns kUnknown if the budget expires first (see Budget).
  Result solve(const std::vector<Lit>& assumptions, const Budget& budget);

  /// After kSat: the model value of a variable / literal.
  bool modelValue(Var v) const {
    DFV_CHECK_MSG(static_cast<std::size_t>(v) < model_.size(),
                  "no model value for variable " << v);
    return model_[static_cast<std::size_t>(v)] == LBool::kTrue;
  }
  bool modelValue(Lit l) const { return modelValue(l.var()) != l.negated(); }

  /// Model value of `l`, or `def` when the variable was created after the
  /// model was produced or was never assigned (an unconstrained input may
  /// take any value; the default is consistent by construction).
  bool modelValueOr(Lit l, bool def) const {
    const auto v = static_cast<std::size_t>(l.var());
    if (v >= model_.size() || model_[v] == LBool::kUndef) return def;
    return modelValue(l);
  }

  /// After kUnsat with assumptions: the subset of assumptions (negated) that
  /// formed the final conflict — an unsat core over assumptions.
  const std::vector<Lit>& conflictAssumptions() const { return conflict_; }

  /// Phase saving: every backtrack records the polarity each variable held,
  /// and pickBranchLit() re-decides that polarity first.  The store is a
  /// plain member, so phases persist across restarts AND across incremental
  /// solve() calls — a sequence of related queries (the fraig pass, a BMC
  /// loop) re-enters the part of the search space the previous solve ended
  /// in instead of re-deriving it from the default-false polarity.
  ///
  /// setPhase seeds the saved polarity explicitly (e.g. from simulation
  /// signatures, so the first descent tracks a known-consistent assignment);
  /// it is a hint only and never affects soundness.
  void setPhase(Var v, bool value) {
    DFV_CHECK_MSG(static_cast<std::size_t>(v) < phase_.size(),
                  "setPhase on unallocated variable " << v);
    phase_[static_cast<std::size_t>(v)] = lboolOf(value);
  }
  bool savedPhase(Var v) const {
    DFV_CHECK_MSG(static_cast<std::size_t>(v) < phase_.size(),
                  "savedPhase on unallocated variable " << v);
    return phase_[static_cast<std::size_t>(v)] == LBool::kTrue;
  }

  const SolverStats& stats() const { return stats_; }

  /// Convenience: a literal that is always true / always false.
  Lit trueLit();

  /// Writes the problem clauses (original + root-level units, not learnt
  /// clauses) in DIMACS CNF format, for debugging with external solvers.
  void writeDimacs(std::ostream& out) const;

 private:
  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    std::uint32_t lbd = 0;
    bool learnt = false;
  };
  struct Watcher {
    Clause* clause;
    Lit blocker;  // if blocker is true, the clause is satisfied: skip
  };

  LBool value(Lit l) const {
    const LBool v = assigns_[static_cast<std::size_t>(l.var())];
    if (v == LBool::kUndef) return LBool::kUndef;
    return lboolOf((v == LBool::kTrue) != l.negated());
  }
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  int level(Var v) const { return levels_[static_cast<std::size_t>(v)]; }

  std::vector<Watcher>& watchesFor(Lit l) {
    return watches_[static_cast<std::size_t>(l.code())];
  }

  void attachClause(Clause* c);
  void detachClause(Clause* c);
  void enqueue(Lit l, Clause* reason);
  Clause* propagate();
  void analyze(Clause* conflict, std::vector<Lit>& learnt, int& backtrackLevel,
               std::uint32_t& lbd);
  void analyzeFinal(Lit p, std::vector<Lit>& outConflict);
  bool litRedundant(Lit l, std::uint32_t abstractLevels);
  void backtrackTo(int lvl);
  Lit pickBranchLit();
  void varBumpActivity(Var v);
  void varDecayActivity();
  void claBumpActivity(Clause* c);
  void claDecayActivity();
  void reduceDb();
  std::uint32_t computeLbd(const std::vector<Lit>& lits);

  // Order heap (max-activity) --------------------------------------------
  void heapInsert(Var v);
  void heapUpdate(Var v);
  Var heapPop();
  bool heapContains(Var v) const {
    return heapPos_[static_cast<std::size_t>(v)] >= 0;
  }
  void heapSiftUp(int i);
  void heapSiftDown(int i);
  bool heapLess(Var a, Var b) const {
    return activity_[static_cast<std::size_t>(a)] >
           activity_[static_cast<std::size_t>(b)];
  }

  // State -------------------------------------------------------------------
  std::vector<LBool> assigns_;
  std::vector<LBool> phase_;      // saved phases
  std::vector<int> levels_;
  std::vector<Clause*> reasons_;
  std::vector<double> activity_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  std::vector<Lit> trail_;
  std::vector<std::size_t> trailLimits_;  // decision level boundaries
  std::size_t propagateHead_ = 0;

  std::vector<Clause*> clauses_;
  std::vector<Clause*> learnts_;
  std::vector<Lit> conflict_;
  std::vector<LBool> model_;

  // VSIDS / heap
  std::vector<int> heapPos_;
  std::vector<Var> heap_;
  double varInc_ = 1.0;
  double claInc_ = 1.0;

  // Analyze scratch
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyzeStack_;
  std::vector<Lit> analyzeToClear_;

  Lit trueLit_ = Lit();  // lazily created constant-true literal
  bool okay_ = true;     // false once root-level conflict found
  SolverStats stats_;
};

}  // namespace dfv::sat
