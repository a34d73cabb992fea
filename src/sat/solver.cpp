#include "sat/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "fault/fault.h"

namespace dfv::sat {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClaDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
constexpr double kRestartBase = 100.0;  ///< conflicts in the first interval

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
double luby(double y, int x) {
  int size, seq;
  for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}
}  // namespace

Solver::Solver() = default;

Solver::~Solver() {
  for (Clause* c : clauses_) delete c;
  for (Clause* c : learnts_) delete c;
}

Var Solver::newVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  phase_.push_back(LBool::kFalse);
  levels_.push_back(0);
  reasons_.push_back(nullptr);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heapPos_.push_back(-1);
  watches_.emplace_back();  // positive literal
  watches_.emplace_back();  // negative literal
  heapInsert(v);
  return v;
}

Lit Solver::trueLit() {
  if (trueLit_.code() < 0) {
    const Var v = newVar();
    trueLit_ = Lit(v, false);
    addClause(trueLit_);
  }
  return trueLit_;
}

bool Solver::addClause(std::vector<Lit> lits) {
  DFV_CHECK_MSG(trailLimits_.empty(), "addClause above decision level 0");
  if (!okay_) return false;
  for (Lit l : lits)
    DFV_CHECK_MSG(static_cast<std::size_t>(l.var()) < assigns_.size(),
                  "clause uses unallocated variable");
  // Simplify: sort, dedup, drop false lits, detect tautology / true lits.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev = Lit::fromCode(-2);
  for (Lit l : lits) {
    if (l == prev) continue;
    if (l == ~prev) return true;  // tautology
    if (value(l) == LBool::kTrue) return true;
    if (value(l) == LBool::kFalse) continue;  // root-level false: drop lit
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    okay_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], nullptr);
    okay_ = propagate() == nullptr;
    return okay_;
  }
  auto* c = new Clause{std::move(out), 0.0, 0, false};
  clauses_.push_back(c);
  attachClause(c);
  return true;
}

void Solver::attachClause(Clause* c) {
  DFV_CHECK(c->lits.size() >= 2);
  watchesFor(~c->lits[0]).push_back(Watcher{c, c->lits[1]});
  watchesFor(~c->lits[1]).push_back(Watcher{c, c->lits[0]});
}

void Solver::detachClause(Clause* c) {
  for (int i = 0; i < 2; ++i) {
    auto& ws = watchesFor(~c->lits[static_cast<std::size_t>(i)]);
    auto it = std::find_if(ws.begin(), ws.end(),
                           [c](const Watcher& w) { return w.clause == c; });
    DFV_CHECK(it != ws.end());
    ws.erase(it);
  }
}

void Solver::enqueue(Lit l, Clause* reason) {
  DFV_CHECK(value(l) == LBool::kUndef);
  const auto v = static_cast<std::size_t>(l.var());
  assigns_[v] = lboolOf(!l.negated());
  levels_[v] = static_cast<int>(trailLimits_.size());
  reasons_[v] = reason;
  trail_.push_back(l);
  ++stats_.propagations;
}

Solver::Clause* Solver::propagate() {
  while (propagateHead_ < trail_.size()) {
    const Lit p = trail_[propagateHead_++];
    auto& ws = watchesFor(p);
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause* c = w.clause;
      auto& lits = c->lits;
      // Ensure the false literal (~p) is at position 1.
      const Lit falseLit = ~p;
      if (lits[0] == falseLit) std::swap(lits[0], lits[1]);
      DFV_CHECK(lits[1] == falseLit);
      ++i;
      // If first literal is true, the clause is satisfied.
      if (value(lits[0]) == LBool::kTrue) {
        ws[j++] = Watcher{c, lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool foundWatch = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watchesFor(~lits[1]).push_back(Watcher{c, lits[0]});
          foundWatch = true;
          break;
        }
      }
      if (foundWatch) continue;
      // Clause is unit or conflicting.
      ws[j++] = Watcher{c, lits[0]};
      if (value(lits[0]) == LBool::kFalse) {
        // Conflict: copy remaining watchers back and bail out.
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        propagateHead_ = trail_.size();
        return c;
      }
      enqueue(lits[0], c);
    }
    ws.resize(j);
  }
  return nullptr;
}

std::uint32_t Solver::computeLbd(const std::vector<Lit>& lits) {
  // Number of distinct decision levels; small LBD = high-quality clause.
  std::vector<int> lvls;
  lvls.reserve(lits.size());
  for (Lit l : lits) lvls.push_back(level(l.var()));
  std::sort(lvls.begin(), lvls.end());
  return static_cast<std::uint32_t>(
      std::unique(lvls.begin(), lvls.end()) - lvls.begin());
}

void Solver::analyze(Clause* conflict, std::vector<Lit>& learnt,
                     int& backtrackLevel, std::uint32_t& lbd) {
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  int pathCount = 0;
  Lit p = Lit();
  std::size_t index = trail_.size();
  Clause* reason = conflict;

  do {
    DFV_CHECK(reason != nullptr);
    if (reason->learnt) claBumpActivity(reason);
    for (std::size_t k = (p == Lit() ? 0 : 1); k < reason->lits.size(); ++k) {
      const Lit q = reason->lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (!seen_[qv] && level(q.var()) > 0) {
        seen_[qv] = 1;
        varBumpActivity(q.var());
        if (level(q.var()) >= static_cast<int>(trailLimits_.size())) {
          ++pathCount;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Next literal on the trail that is marked seen.
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    --index;
    p = trail_[index];
    reason = reasons_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --pathCount;
  } while (pathCount > 0);
  learnt[0] = ~p;

  // Clause minimization: drop literals implied by the rest of the clause.
  analyzeToClear_ = learnt;
  std::uint32_t abstractLevels = 0;
  for (std::size_t k = 1; k < learnt.size(); ++k)
    abstractLevels |= 1u << (level(learnt[k].var()) & 31);
  std::size_t keep = 1;
  for (std::size_t k = 1; k < learnt.size(); ++k) {
    const auto v = static_cast<std::size_t>(learnt[k].var());
    if (reasons_[v] == nullptr || !litRedundant(learnt[k], abstractLevels))
      learnt[keep++] = learnt[k];
  }
  learnt.resize(keep);
  for (Lit l : analyzeToClear_) seen_[static_cast<std::size_t>(l.var())] = 0;
  for (Lit l : learnt) seen_[static_cast<std::size_t>(l.var())] = 0;

  // Backtrack level: second-highest level in the clause.
  if (learnt.size() == 1) {
    backtrackLevel = 0;
  } else {
    std::size_t maxI = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k)
      if (level(learnt[k].var()) > level(learnt[maxI].var())) maxI = k;
    std::swap(learnt[1], learnt[maxI]);
    backtrackLevel = level(learnt[1].var());
  }
  lbd = computeLbd(learnt);
}

bool Solver::litRedundant(Lit l, std::uint32_t abstractLevels) {
  analyzeStack_.clear();
  analyzeStack_.push_back(l);
  const std::size_t clearTop = analyzeToClear_.size();
  while (!analyzeStack_.empty()) {
    const Lit cur = analyzeStack_.back();
    analyzeStack_.pop_back();
    Clause* reason = reasons_[static_cast<std::size_t>(cur.var())];
    DFV_CHECK(reason != nullptr);
    for (std::size_t k = 1; k < reason->lits.size(); ++k) {
      const Lit q = reason->lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || level(q.var()) == 0) continue;
      if (reasons_[qv] == nullptr ||
          ((1u << (level(q.var()) & 31)) & abstractLevels) == 0) {
        // Not removable: undo marks made during this check.
        for (std::size_t m = clearTop; m < analyzeToClear_.size(); ++m)
          seen_[static_cast<std::size_t>(analyzeToClear_[m].var())] = 0;
        analyzeToClear_.resize(clearTop);
        return false;
      }
      seen_[qv] = 1;
      analyzeStack_.push_back(q);
      analyzeToClear_.push_back(q);
    }
  }
  return true;
}

void Solver::analyzeFinal(Lit p, std::vector<Lit>& outConflict) {
  outConflict.clear();
  outConflict.push_back(p);
  if (trailLimits_.empty()) return;
  seen_[static_cast<std::size_t>(p.var())] = 1;
  for (std::size_t i = trail_.size(); i-- > trailLimits_[0];) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    if (!seen_[v]) continue;
    if (reasons_[v] == nullptr) {
      DFV_CHECK(level(trail_[i].var()) > 0);
      outConflict.push_back(~trail_[i]);
    } else {
      for (std::size_t k = 1; k < reasons_[v]->lits.size(); ++k) {
        const Lit q = reasons_[v]->lits[k];
        if (level(q.var()) > 0) seen_[static_cast<std::size_t>(q.var())] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::backtrackTo(int lvl) {
  if (static_cast<int>(trailLimits_.size()) <= lvl) return;
  const std::size_t bound = trailLimits_[static_cast<std::size_t>(lvl)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    phase_[v] = assigns_[v];  // phase saving
    assigns_[v] = LBool::kUndef;
    reasons_[v] = nullptr;
    if (!heapContains(trail_[i].var())) heapInsert(trail_[i].var());
  }
  trail_.resize(bound);
  trailLimits_.resize(static_cast<std::size_t>(lvl));
  propagateHead_ = trail_.size();
}

Lit Solver::pickBranchLit() {
  while (true) {
    if (heap_.empty()) return Lit();
    const Var v = heapPop();
    if (value(v) == LBool::kUndef) {
      ++stats_.decisions;
      return Lit(v, phase_[static_cast<std::size_t>(v)] == LBool::kFalse);
    }
  }
}

void Solver::varBumpActivity(Var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += varInc_;
  if (act > kRescaleLimit) {
    for (auto& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  if (heapContains(v)) heapUpdate(v);
}

void Solver::varDecayActivity() { varInc_ /= kVarDecay; }

void Solver::claBumpActivity(Clause* c) {
  c->activity += claInc_;
  if (c->activity > kRescaleLimit) {
    for (Clause* lc : learnts_) lc->activity *= 1e-100;
    claInc_ *= 1e-100;
  }
}

void Solver::claDecayActivity() { claInc_ /= kClaDecay; }

void Solver::reduceDb() {
  // Keep the better half of learnt clauses; never delete reason clauses or
  // clauses with very small LBD.
  std::sort(learnts_.begin(), learnts_.end(), [](Clause* a, Clause* b) {
    if (a->lbd != b->lbd) return a->lbd > b->lbd;
    return a->activity < b->activity;
  });
  auto isReason = [this](Clause* c) {
    const Lit first = c->lits[0];
    return value(first) == LBool::kTrue &&
           reasons_[static_cast<std::size_t>(first.var())] == c;
  };
  std::vector<Clause*> kept;
  kept.reserve(learnts_.size());
  const std::size_t dropTarget = learnts_.size() / 2;
  std::size_t dropped = 0;
  for (Clause* c : learnts_) {
    if (dropped < dropTarget && c->lbd > 2 && c->lits.size() > 2 &&
        !isReason(c)) {
      detachClause(c);
      delete c;
      ++dropped;
      ++stats_.deletedClauses;
    } else {
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
}

Result Solver::solve(const std::vector<Lit>& assumptions,
                     const Budget& budget) {
  budget.validate();
  conflict_.clear();
  model_.clear();
  // Fault-injection site: every solve call passes through here, so armed
  // policies can model a crashing solver (throw), a solver that gives up
  // for no reason (spurious kUnknown), or a budget that expires before any
  // work is done.  With no injector installed this is one pointer load.
  switch (fault::onSiteHit(fault::Site::kSolverSolve)) {
    case fault::Policy::kThrowCheckError:
      fault::throwInjected(fault::Site::kSolverSolve);
    case fault::Policy::kSpuriousUnknown:
      return Result::kUnknown;
    case fault::Policy::kExhaustBudget:
      // Only a budgeted call may legitimately return kUnknown (see Result);
      // injected early exhaustion respects that contract.
      if (!budget.unlimited()) return Result::kUnknown;
      break;
    default:
      break;
  }
  if (!okay_) return Result::kUnsat;
  for (Lit a : assumptions)
    DFV_CHECK_MSG(static_cast<std::size_t>(a.var()) < assigns_.size(),
                  "assumption uses unallocated variable");

  // Budget accounting is relative to this call; cumulative stats_ provide
  // the baselines.  The wall clock is sampled only every few conflicts /
  // decisions so an unlimited run pays nothing for the feature.
  const std::uint64_t conflicts0 = stats_.conflicts;
  const std::uint64_t propagations0 = stats_.propagations;
  const auto wallStart = std::chrono::steady_clock::now();
  std::uint32_t budgetTick = 0;
  auto budgetExpired = [&]() -> bool {
    if (budget.maxConflicts != 0 &&
        stats_.conflicts - conflicts0 >=
            static_cast<std::uint64_t>(budget.maxConflicts))
      return true;
    if (budget.maxPropagations != 0 &&
        stats_.propagations - propagations0 >=
            static_cast<std::uint64_t>(budget.maxPropagations))
      return true;
    if (budget.maxSeconds > 0.0 && (++budgetTick & 63u) == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wallStart)
              .count();
      if (elapsed >= budget.maxSeconds) return true;
    }
    return false;
  };

  auto restartLimit = [](int n) {
    return static_cast<std::uint64_t>(luby(2.0, n) * kRestartBase);
  };
  int restartCount = 0;
  std::uint64_t conflictBudget = restartLimit(restartCount);
  std::uint64_t conflictsThisRestart = 0;
  std::size_t maxLearnts = clauses_.size() / 3 + 1000;

  for (;;) {
    Clause* confl = propagate();
    if (confl != nullptr) {
      ++stats_.conflicts;
      ++conflictsThisRestart;
      if (trailLimits_.empty()) {
        okay_ = false;
        return Result::kUnsat;  // conflict at root level
      }
      std::vector<Lit> learnt;
      int btLevel;
      std::uint32_t lbd;
      analyze(confl, learnt, btLevel, lbd);
      backtrackTo(btLevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], nullptr);
      } else {
        auto* c = new Clause{std::move(learnt), 0.0, lbd, true};
        learnts_.push_back(c);
        ++stats_.learntClauses;
        attachClause(c);
        claBumpActivity(c);
        enqueue(c->lits[0], c);
      }
      varDecayActivity();
      claDecayActivity();
      if (!budget.unlimited() && budgetExpired()) {
        backtrackTo(0);
        return Result::kUnknown;
      }
      continue;
    }

    // No conflict.
    if (!budget.unlimited() && budgetExpired()) {
      backtrackTo(0);
      return Result::kUnknown;
    }
    if (conflictsThisRestart >= conflictBudget) {
      ++stats_.restarts;
      ++restartCount;
      conflictsThisRestart = 0;
      conflictBudget = restartLimit(restartCount);
      backtrackTo(0);
      continue;
    }
    if (learnts_.size() >= maxLearnts) {
      reduceDb();
      maxLearnts = maxLearnts * 11 / 10;
    }

    // Decide: assumptions first, then VSIDS.
    Lit next = Lit();
    while (trailLimits_.size() < assumptions.size()) {
      const Lit a = assumptions[trailLimits_.size()];
      if (value(a) == LBool::kTrue) {
        trailLimits_.push_back(trail_.size());  // dummy level
      } else if (value(a) == LBool::kFalse) {
        analyzeFinal(~a, conflict_);
        backtrackTo(0);
        return Result::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next == Lit()) next = pickBranchLit();
    if (next == Lit()) {
      // All variables assigned: model found.
      model_.assign(assigns_.begin(), assigns_.end());
      backtrackTo(0);
      return Result::kSat;
    }
    trailLimits_.push_back(trail_.size());
    enqueue(next, nullptr);
  }
}

void Solver::writeDimacs(std::ostream& out) const {
  // Root-level assignments are emitted as unit clauses so the dump is
  // equisatisfiable with the live solver state.
  std::size_t units = 0;
  for (std::size_t i = 0; i < trail_.size(); ++i)
    if (levels_[static_cast<std::size_t>(trail_[i].var())] == 0) ++units;
  out << "p cnf " << numVars() << ' ' << clauses_.size() + units << '\n';
  auto emit = [&out](Lit l) {
    out << (l.negated() ? -(l.var() + 1) : (l.var() + 1));
  };
  for (const Clause* c : clauses_) {
    for (Lit l : c->lits) {
      emit(l);
      out << ' ';
    }
    out << "0\n";
  }
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    if (levels_[static_cast<std::size_t>(l.var())] != 0) continue;
    emit(l);
    out << " 0\n";
  }
}

// ----- order heap -----------------------------------------------------------

void Solver::heapInsert(Var v) {
  DFV_CHECK(!heapContains(v));
  heapPos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heapSiftUp(static_cast<int>(heap_.size()) - 1);
}

void Solver::heapUpdate(Var v) {
  heapSiftUp(heapPos_[static_cast<std::size_t>(v)]);
}

Var Solver::heapPop() {
  DFV_CHECK(!heap_.empty());
  const Var top = heap_[0];
  heapPos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heapPos_[static_cast<std::size_t>(heap_[0])] = 0;
    heapSiftDown(0);
  }
  return top;
}

void Solver::heapSiftUp(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heapLess(v, heap_[static_cast<std::size_t>(parent)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heapPos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapPos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heapSiftDown(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heapLess(heap_[static_cast<std::size_t>(child + 1)],
                                  heap_[static_cast<std::size_t>(child)]))
      ++child;
    if (!heapLess(heap_[static_cast<std::size_t>(child)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heapPos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapPos_[static_cast<std::size_t>(v)] = i;
}

}  // namespace dfv::sat
