// Tests for the CDCL SAT solver: unit cases, structured hard instances,
// incremental assumptions, and a differential sweep against brute force.

#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

namespace dfv::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(SatSolver, TrivialSat) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar();
  s.addClause(pos(a), pos(b));
  s.addClause(neg(a), pos(b));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(SatSolver, TrivialUnsat) {
  Solver s;
  const Var a = s.newVar();
  s.addClause(pos(a));
  EXPECT_FALSE(s.addClause(neg(a)));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  constexpr int kN = 50;
  std::vector<Var> v;
  for (int i = 0; i < kN; ++i) v.push_back(s.newVar());
  for (int i = 0; i + 1 < kN; ++i) s.addClause(neg(v[i]), pos(v[i + 1]));
  s.addClause(pos(v[0]));
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(s.modelValue(v[i]));
}

TEST(SatSolver, XorChainSatisfiable) {
  // x0 xor x1 = 1, x1 xor x2 = 1, ..., with x0 = 0 forced.
  Solver s;
  constexpr int kN = 20;
  std::vector<Var> v;
  for (int i = 0; i < kN; ++i) v.push_back(s.newVar());
  for (int i = 0; i + 1 < kN; ++i) {
    s.addClause(pos(v[i]), pos(v[i + 1]));
    s.addClause(neg(v[i]), neg(v[i + 1]));
  }
  s.addClause(neg(v[0]));
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(s.modelValue(v[i]), i % 2 == 1);
}

/// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real search.
void addPigeonhole(Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(pigeons));
  for (int i = 0; i < pigeons; ++i)
    for (int j = 0; j < holes; ++j)
      p[static_cast<std::size_t>(i)].push_back(s.newVar());
  // Every pigeon in some hole.
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j)
      clause.push_back(pos(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
    s.addClause(clause);
  }
  // No two pigeons share a hole.
  for (int j = 0; j < holes; ++j)
    for (int i1 = 0; i1 < pigeons; ++i1)
      for (int i2 = i1 + 1; i2 < pigeons; ++i2)
        s.addClause(neg(p[static_cast<std::size_t>(i1)][static_cast<std::size_t>(j)]),
                    neg(p[static_cast<std::size_t>(i2)][static_cast<std::size_t>(j)]));
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes : {3, 4, 5, 6}) {
    Solver s;
    addPigeonhole(s, holes);
    EXPECT_EQ(s.solve(), Result::kUnsat) << "PHP with " << holes << " holes";
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatSolver, PigeonholeExactFitSat) {
  // n pigeons, n holes: satisfiable.
  Solver s;
  constexpr int kN = 5;
  std::vector<std::vector<Var>> p(kN);
  for (auto& row : p)
    for (int j = 0; j < kN; ++j) row.push_back(s.newVar());
  for (auto& row : p) {
    std::vector<Lit> clause;
    for (Var v : row) clause.push_back(pos(v));
    s.addClause(clause);
  }
  for (int j = 0; j < kN; ++j)
    for (int i1 = 0; i1 < kN; ++i1)
      for (int i2 = i1 + 1; i2 < kN; ++i2)
        s.addClause(neg(p[static_cast<std::size_t>(i1)][static_cast<std::size_t>(j)]),
                    neg(p[static_cast<std::size_t>(i2)][static_cast<std::size_t>(j)]));
  EXPECT_EQ(s.solve(), Result::kSat);
  // Verify the model really is a matching.
  for (int j = 0; j < kN; ++j) {
    int count = 0;
    for (int i = 0; i < kN; ++i)
      count += s.modelValue(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    EXPECT_LE(count, 1);
  }
}

TEST(SatSolver, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar();
  s.addClause(pos(a), pos(b));  // a | b
  EXPECT_EQ(s.solve({neg(a)}), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_EQ(s.solve({neg(b)}), Result::kSat);
  EXPECT_TRUE(s.modelValue(a));
  EXPECT_EQ(s.solve({neg(a), neg(b)}), Result::kUnsat);
  // The formula itself stays satisfiable after an UNSAT-under-assumptions.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, ConflictAssumptionsFormCore) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  s.addClause(neg(a), neg(b));  // a -> !b
  EXPECT_EQ(s.solve({pos(a), pos(b), pos(c)}), Result::kUnsat);
  // The core must mention only a and b (c is irrelevant).
  for (Lit l : s.conflictAssumptions()) EXPECT_NE(l.var(), c);
  EXPECT_GE(s.conflictAssumptions().size(), 1u);
  EXPECT_LE(s.conflictAssumptions().size(), 2u);
}

TEST(SatSolver, IncrementalAddClausesBetweenSolves) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar();
  s.addClause(pos(a), pos(b));
  EXPECT_EQ(s.solve(), Result::kSat);
  s.addClause(neg(a));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
  s.addClause(neg(b));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, TautologyAndDuplicatesHandled) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar();
  EXPECT_TRUE(s.addClause(std::vector<Lit>{pos(a), neg(a)}));  // tautology
  EXPECT_TRUE(s.addClause(std::vector<Lit>{pos(b), pos(b), pos(b)}));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(SatSolver, TrueLitIsAlwaysTrue) {
  Solver s;
  const Lit t = s.trueLit();
  const Var a = s.newVar();
  s.addClause(~t, pos(a));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(t));
  EXPECT_TRUE(s.modelValue(a));
}


TEST(SatSolver, DimacsExport) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  s.addClause(pos(a), pos(b));
  s.addClause(neg(b), pos(c));
  s.addClause(neg(a));  // becomes a root-level unit
  std::ostringstream out;
  s.writeDimacs(out);
  const std::string text = out.str();
  // Header counts: 2 binary clauses + at least the unit from the trail.
  EXPECT_NE(text.find("p cnf 3 "), std::string::npos);
  // Watch maintenance may reorder literals within a clause.
  EXPECT_TRUE(text.find("1 2 0") != std::string::npos ||
              text.find("2 1 0") != std::string::npos)
      << text;
  EXPECT_TRUE(text.find("-2 3 0") != std::string::npos ||
              text.find("3 -2 0") != std::string::npos)
      << text;
  EXPECT_NE(text.find("-1 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Resource budgets.
// ---------------------------------------------------------------------------

TEST(SatBudget, ConflictCapReturnsUnknownAndSolverStaysUsable) {
  Solver s;
  addPigeonhole(s, 7);  // needs far more than 20 conflicts
  Budget tiny;
  tiny.maxConflicts = 20;
  EXPECT_EQ(s.solve({}, tiny), Result::kUnknown);
  const std::uint64_t afterFirst = s.stats().conflicts;
  EXPECT_GE(afterFirst, 20u);
  // The solver (and what it learnt) must remain valid: an unlimited re-solve
  // completes with the true verdict.
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatBudget, PropagationCapReturnsUnknown) {
  Solver s;
  addPigeonhole(s, 7);
  Budget tiny;
  tiny.maxPropagations = 50;
  EXPECT_EQ(s.solve({}, tiny), Result::kUnknown);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatBudget, WallClockCapReturnsUnknown) {
  Solver s;
  addPigeonhole(s, 8);  // roughly half a second unconstrained
  Budget tiny;
  tiny.maxSeconds = 0.005;
  EXPECT_EQ(s.solve({}, tiny), Result::kUnknown);
}

TEST(SatBudget, UnlimitedBudgetIsDefaultBehavior) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar();
  s.addClause(pos(a), pos(b));
  EXPECT_TRUE(Budget{}.unlimited());
  EXPECT_EQ(s.solve({}, Budget{}), Result::kSat);
  EXPECT_EQ(s.solve({neg(a), neg(b)}, Budget{}), Result::kUnsat);
}

TEST(SatBudget, GenerousBudgetDoesNotChangeVerdicts) {
  std::mt19937 rng(321);
  Budget generous;
  generous.maxConflicts = 1u << 20;
  generous.maxSeconds = 60.0;
  for (int instance = 0; instance < 20; ++instance) {
    constexpr int kN = 12;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < static_cast<int>(kN * 4.3); ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.emplace_back(static_cast<Var>(rng() % kN), (rng() & 1) != 0);
      clauses.push_back(cl);
    }
    Solver plain, budgeted;
    for (int v = 0; v < kN; ++v) {
      plain.newVar();
      budgeted.newVar();
    }
    bool okPlain = true, okBudgeted = true;
    for (auto& cl : clauses) {
      okPlain = plain.addClause(cl) && okPlain;
      okBudgeted = budgeted.addClause(cl) && okBudgeted;
    }
    const Result rPlain = okPlain ? plain.solve() : Result::kUnsat;
    const Result rBudgeted =
        okBudgeted ? budgeted.solve({}, generous) : Result::kUnsat;
    EXPECT_EQ(rPlain, rBudgeted) << "instance " << instance;
  }
}

// ---------------------------------------------------------------------------
// Incremental interface: unsat cores and restart/reduceDb stress.
// ---------------------------------------------------------------------------

namespace {
/// True iff `clauses` restricted by `assumptions` has a satisfying
/// assignment over `n` variables (exhaustive check, n <= 20).
bool bruteForceSatUnder(int n, const std::vector<std::vector<Lit>>& clauses,
                        const std::vector<Lit>& assumptions) {
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    bool ok = true;
    for (Lit a : assumptions)
      if (((m >> a.var()) & 1u) == (a.negated() ? 1u : 0u)) {
        ok = false;
        break;
      }
    for (const auto& cl : clauses) {
      if (!ok) break;
      bool some = false;
      for (Lit l : cl)
        if (((m >> l.var()) & 1u) != (l.negated() ? 1u : 0u)) some = true;
      ok = some;
    }
    if (ok) return true;
  }
  return false;
}
}  // namespace

TEST(SatIncremental, RotatingAssumptionsMatchEnumerationAndCoresAreGenuine) {
  // One solver per instance, many solve() calls with rotating assumption
  // sets.  Every verdict is checked against exhaustive enumeration; every
  // UNSAT core is checked to be (a) a subset of the negated assumptions and
  // (b) itself sufficient — re-solving under only the core stays UNSAT.
  std::mt19937 rng(911);
  for (int n : {8, 10, 12}) {
    for (int instance = 0; instance < 6; ++instance) {
      std::vector<std::vector<Lit>> clauses;
      for (int c = 0; c < static_cast<int>(n * 4.0); ++c) {
        std::vector<Lit> cl;
        for (int k = 0; k < 3; ++k)
          cl.emplace_back(static_cast<Var>(rng() % static_cast<unsigned>(n)),
                          (rng() & 1) != 0);
        clauses.push_back(cl);
      }
      Solver s;
      for (int v = 0; v < n; ++v) s.newVar();
      for (auto& cl : clauses) s.addClause(cl);
      for (int round = 0; round < 25; ++round) {
        std::vector<Lit> assumptions;
        const int k = 1 + static_cast<int>(rng() % 4);
        std::vector<bool> used(static_cast<std::size_t>(n), false);
        for (int i = 0; i < k; ++i) {
          const Var v = static_cast<Var>(rng() % static_cast<unsigned>(n));
          if (used[static_cast<std::size_t>(v)]) continue;
          used[static_cast<std::size_t>(v)] = true;
          assumptions.emplace_back(v, (rng() & 1) != 0);
        }
        const bool expected = bruteForceSatUnder(n, clauses, assumptions);
        const Result r = s.solve(assumptions);
        ASSERT_EQ(r == Result::kSat, expected)
            << "n=" << n << " instance=" << instance << " round=" << round;
        if (r == Result::kSat) {
          for (Lit a : assumptions) EXPECT_TRUE(s.modelValue(a));
          for (const auto& cl : clauses) {
            bool some = false;
            for (Lit l : cl) some = some || s.modelValue(l);
            EXPECT_TRUE(some);
          }
        } else {
          const std::vector<Lit> core = s.conflictAssumptions();
          for (Lit c : core) {
            EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), ~c),
                      assumptions.end())
                << "core literal is not a negated assumption";
          }
          std::vector<Lit> coreOnly;
          for (Lit c : core) coreOnly.push_back(~c);
          EXPECT_EQ(s.solve(coreOnly), Result::kUnsat)
              << "the reported core is not sufficient for UNSAT";
          EXPECT_FALSE(bruteForceSatUnder(n, clauses, coreOnly));
        }
      }
    }
  }
}

TEST(SatIncremental, RestartAndReduceDbStressUnderRotatingAssumptions) {
  // A pigeonhole instance solved repeatedly under rotating assumption sets:
  // hard enough to force restarts and learnt-clause reduction, and UNSAT
  // under any placement assumptions, so every verdict is known a priori.
  Solver s;
  const int holes = 8, pigeons = holes + 1;
  addPigeonhole(s, holes);  // vars are p[i][j] = i * holes + j
  auto pv = [&](int i, int j) { return static_cast<Var>(i * holes + j); };
  for (int round = 0; round < 6; ++round) {
    // Pin a rotating pair of pigeons into rotating holes; the instance
    // stays UNSAT (the principle is independent of any partial placement).
    std::vector<Lit> assumptions = {
        pos(pv(round % pigeons, round % holes)),
        pos(pv((round + 3) % pigeons, (round + 1) % holes))};
    EXPECT_EQ(s.solve(assumptions), Result::kUnsat) << "round " << round;
  }
  EXPECT_GT(s.stats().restarts, 0u) << "stress must trigger restarts";
  EXPECT_GT(s.stats().deletedClauses, 0u) << "stress must trigger reduceDb";
  EXPECT_GT(s.stats().learntClauses, s.stats().deletedClauses);
}

TEST(SatIncremental, RootUnitChainRefutesLaterAssumptions) {
  // Root-level units (the encoding fraig's equivalence proofs use) are
  // trail assignments, not clauses: after a search that learns, restarts
  // and reduces, a root unit plus its implication chain still contradicts
  // later assumptions on any link of the chain.
  std::mt19937 rng(31337);
  Solver s;
  constexpr int kN = 30;
  std::vector<Var> v;
  for (int i = 0; i < kN; ++i) v.push_back(s.newVar());
  s.addClause(pos(v[0]));  // root unit
  for (int i = 0; i + 1 < kN; ++i) s.addClause(neg(v[i]), pos(v[i + 1]));
  // Satisfiable ballast on fresh variables (ratio 3.0, fixed seed) so the
  // overall instance stays SAT while the search generates real conflicts.
  std::vector<Var> w;
  for (int i = 0; i < 80; ++i) w.push_back(s.newVar());
  for (int c = 0; c < 240; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.emplace_back(w[rng() % w.size()], (rng() & 1) != 0);
    s.addClause(cl);
  }
  const Result r = s.solve();
  ASSERT_NE(r, Result::kUnknown);
  if (r == Result::kSat) {
    for (int i = 0; i < kN; ++i) EXPECT_TRUE(s.modelValue(v[i])) << i;
  }
  EXPECT_EQ(s.solve({neg(v[0])}), Result::kUnsat);
  EXPECT_EQ(s.solve({neg(v[kN - 1])}), Result::kUnsat);
}

// ---------------------------------------------------------------------------
// Differential sweep: random 3-SAT instances vs brute-force enumeration.
// ---------------------------------------------------------------------------

class SatDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SatDifferential, MatchesBruteForce) {
  const int n = GetParam();
  std::mt19937 rng(1000 + static_cast<unsigned>(n));
  for (int instance = 0; instance < 40; ++instance) {
    // Near the phase transition (ratio ~4.3) to get both SAT and UNSAT.
    const int m = static_cast<int>(n * 4.3);
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.emplace_back(static_cast<Var>(rng() % static_cast<unsigned>(n)),
                        (rng() & 1) != 0);
      clauses.push_back(cl);
    }
    // Brute force.
    bool anySat = false;
    for (std::uint32_t m2 = 0; m2 < (1u << n) && !anySat; ++m2) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool some = false;
        for (Lit l : cl)
          if (((m2 >> l.var()) & 1u) != (l.negated() ? 1u : 0u)) some = true;
        if (!some) {
          all = false;
          break;
        }
      }
      anySat = all;
    }
    // Solver.
    Solver s;
    for (int v = 0; v < n; ++v) s.newVar();
    bool ok = true;
    for (auto& cl : clauses) ok = s.addClause(cl) && ok;
    const Result r = ok ? s.solve() : Result::kUnsat;
    EXPECT_EQ(r == Result::kSat, anySat) << "instance " << instance;
    if (r == Result::kSat) {
      // Verify the model satisfies every clause.
      for (const auto& cl : clauses) {
        bool some = false;
        for (Lit l : cl) some = some || s.modelValue(l);
        EXPECT_TRUE(some);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SatDifferential,
                         ::testing::Values(4, 6, 8, 10, 12, 14));

TEST(SatSolver, LargerRandomSatInstancesComplete) {
  // 150 variables below the phase transition: should be SAT and fast.
  std::mt19937 rng(77);
  Solver s;
  constexpr int kN = 150;
  for (int v = 0; v < kN; ++v) s.newVar();
  for (int c = 0; c < kN * 3; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k)
      cl.emplace_back(static_cast<Var>(rng() % kN), (rng() & 1) != 0);
    s.addClause(cl);
  }
  const Result r = s.solve();
  // Ratio 3.0 is almost surely SAT; accept either verdict but require
  // termination and a consistent model when SAT.
  if (r == Result::kSat) {
    EXPECT_EQ(s.numVars(), static_cast<std::size_t>(kN));
  }
}

TEST(SatPhase, SavedPhaseMatchesModelAfterSolve) {
  // Phase saving records the last assignment of every variable; after a SAT
  // answer the saved phases and the model must agree (the model IS the last
  // assignment).
  std::mt19937 rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    Solver s;
    constexpr int kN = 40;
    for (int v = 0; v < kN; ++v) s.newVar();
    for (int c = 0; c < kN * 3; ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.emplace_back(static_cast<Var>(rng() % kN), (rng() & 1) != 0);
      s.addClause(cl);
    }
    if (s.solve() != Result::kSat) continue;
    for (Var v = 0; v < kN; ++v)
      EXPECT_EQ(s.savedPhase(v), s.modelValue(v)) << "var " << v;
  }
}

TEST(SatPhase, SetPhaseSteersUnconstrainedVariables) {
  // Decisions branch on the saved polarity, so seeding phases fully
  // determines the model of an unconstrained formula.
  Solver s;
  constexpr int kN = 32;
  for (int v = 0; v < kN; ++v) s.newVar();
  for (Var v = 0; v < kN; ++v) {
    EXPECT_FALSE(s.savedPhase(v));  // newVar seeds phase false
    s.setPhase(v, (v % 3) == 0);
  }
  ASSERT_EQ(s.solve(), Result::kSat);
  for (Var v = 0; v < kN; ++v)
    EXPECT_EQ(s.modelValue(v), (v % 3) == 0) << "var " << v;
}

TEST(SatPhase, PhasesPersistAcrossIncrementalSolves) {
  Solver s;
  const Var a = s.newVar(), b = s.newVar(), c = s.newVar();
  s.addClause(pos(a), pos(b));  // c is free
  s.setPhase(c, true);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(c));
  // Re-seed the free variable the other way; the next solve follows it.
  s.setPhase(c, false);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.modelValue(c));
}

TEST(SatPhase, PhaseAccessOnUnallocatedVariableIsAContractViolation) {
  Solver s;
  s.newVar();
  EXPECT_THROW(s.setPhase(5, true), CheckError);
  EXPECT_THROW((void)s.savedPhase(5), CheckError);
}

// ---------------------------------------------------------------------------
// Budget validation and determinism.
// ---------------------------------------------------------------------------

TEST(SatBudget, NegativeCapsAreRejectedAtSolve) {
  // A negative cap is a caller bug (it would silently mean "unlimited" in
  // the old unsigned-overflow world, or "instantly expired" in the int one);
  // the contract is to refuse it loudly at the solve entry point.
  Solver s;
  const Var a = s.newVar();
  s.addClause(pos(a));
  Budget bad;
  bad.maxConflicts = -1;
  EXPECT_THROW(s.solve({}, bad), CheckError);
  bad = Budget{};
  bad.maxPropagations = -100;
  EXPECT_THROW(s.solve({}, bad), CheckError);
  bad = Budget{};
  bad.maxSeconds = -0.25;
  EXPECT_THROW(s.solve({}, bad), CheckError);
  bad = Budget{};
  bad.maxSeconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(s.solve({}, bad), CheckError);
  // The refused solve never started: the solver is untouched and usable.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, TwoInstancesReproduceVerdictsAndCounters) {
  // The solver has no RNG and one fixed configuration: two instances fed
  // the same clauses reach the same verdict along the same path, so their
  // conflict, decision and propagation counts match exactly.  Every
  // deterministic SEC counter rests on this.
  std::mt19937 rng(97);
  for (int instance = 0; instance < 25; ++instance) {
    constexpr int kN = 12;
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < static_cast<int>(kN * 4.3); ++c) {
      std::vector<Lit> cl;
      for (int k = 0; k < 3; ++k)
        cl.emplace_back(static_cast<Var>(rng() % kN), (rng() & 1) != 0);
      clauses.push_back(cl);
    }
    Solver first;
    Solver second;
    bool okFirst = true, okSecond = true;
    for (int v = 0; v < kN; ++v) {
      first.newVar();
      second.newVar();
    }
    for (auto& cl : clauses) {
      okFirst = first.addClause(cl) && okFirst;
      okSecond = second.addClause(cl) && okSecond;
    }
    const Result rFirst = okFirst ? first.solve() : Result::kUnsat;
    const Result rSecond = okSecond ? second.solve() : Result::kUnsat;
    EXPECT_EQ(rFirst, rSecond) << "instance " << instance;
    EXPECT_EQ(first.stats().conflicts, second.stats().conflicts)
        << "instance " << instance;
    EXPECT_EQ(first.stats().decisions, second.stats().decisions)
        << "instance " << instance;
    EXPECT_EQ(first.stats().propagations, second.stats().propagations)
        << "instance " << instance;
  }
}

}  // namespace
}  // namespace dfv::sat
