// Certified inductive invariants: candidate mining + Houdini-style
// certification.
//
// dfv::absint computes exactly the facts (value intervals, known bits) that
// would close many SEC inductions, but they are reachability facts — true on
// every trace from reset, unsound to assume in an arbitrary symbolic start
// state.  This subsystem is the sanctioned bridge: it harvests per-state
// candidate predicates from the absint fixpoint and from slice's ternary
// greatest fixpoint, then *certifies* a subset with the classic Houdini
// drop-until-stable loop on sat::Solver:
//
//   init |= C_i                      (concrete check on the reset state)
//   /\C(s) /\ T(s, s')  =>  C_i(s')  (one incremental SAT query per
//                                     candidate, inputs fully free)
//
// Any candidate whose step check is satisfiable is dropped and the loop
// repeats until a full pass survives; the surviving set is then
// *simultaneously inductive* and holds at reset, so each member holds in
// every reachable state AND may be assumed at a symbolic induction start.
// Soundness rests on the SAT certificate, not on the analyzers: a wrong
// candidate (from a bug or an adversarial caller) is simply dropped.
//
// Environment constraints are deliberately ignored during certification
// (dropping assumptions only enlarges the transition relation, so every
// certificate stays valid for the constrained system), and the whole pass
// is a pure deterministic function of (system, options): fixed candidate
// order, no RNG, no wall-clock-dependent decisions.  All certification
// solves are charged against one sat::Budget pool; if it runs dry the pass
// returns the EMPTY certified set (a partially-checked Houdini set is not a
// certificate) with budgetExhausted telemetry — callers degrade to the
// uncertified path, never to a wrong verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "absint/analysis.h"
#include "ir/transition_system.h"
#include "sat/solver.h"

namespace dfv::inv {

struct Options {
  /// Mine interval-bound and known-bits candidates from the absint state
  /// fixpoint (absint::Analysis::statePredicates).
  bool mineAbsint = true;
  /// Options for the mining analysis (widening, refinement budget).
  absint::Options absintOptions{};
  /// Mine stuck-bit candidates from slice::sequentialTernary masks.
  bool mineTernary = true;
  /// Hard cap on the candidate set; deterministic truncation (mining
  /// order), with the excess counted into Stats::dropped.  Caps the cost of
  /// one Houdini round at maxCandidates incremental solves.
  unsigned maxCandidates = 64;
  /// Caller-supplied candidates, appended after the mined ones.  Each must
  /// be a 1-bit scalar predicate over the system's state leaves only
  /// (CheckError otherwise) — unsound ones are dropped by certification,
  /// not trusted.
  std::vector<ir::NodeRef> extraCandidates;
};

struct Stats {
  /// Unique candidates considered (mined + extras, after dedup).  When
  /// certification completes, certified + dropped == candidates.
  std::uint64_t candidates = 0;
  std::uint64_t certified = 0;
  /// Houdini passes over the candidate set (>= 1 when any step check ran).
  std::uint64_t rounds = 0;
  /// Candidates lost to cap truncation, the reset check, or a satisfiable
  /// step check.
  std::uint64_t dropped = 0;
  /// Solver cost of every certification solve, charged against the budget
  /// pool.  Kept separate from consumer solver stats so SEC phase
  /// telemetry is unchanged by strengthening.
  std::uint64_t certConflicts = 0;
  std::uint64_t certPropagations = 0;
  std::uint64_t certDecisions = 0;
  double certSeconds = 0.0;
  /// Wall time of the mining analysis (absint::Analysis::run); zero when
  /// mineAbsint is off.
  double absintSeconds = 0.0;
  /// The budget pool ran dry: certified is empty, the caller must fall back
  /// to the uncertified path.
  bool budgetExhausted = false;
};

struct Result {
  /// The certified simultaneously-inductive set, in mining order.  Every
  /// member holds at reset, in every reachable state, and is closed under
  /// one transition of `ts` with fully free inputs.
  std::vector<ir::NodeRef> certified;
  Stats stats;
};

/// Mines and certifies invariants for `ts` (which must validate()).
/// `budget` is a shared pool across all certification solves: each solve
/// runs under the pool's remainder, and exhaustion aborts certification
/// with an empty certified set.
/// Deterministic: equal (ts, opts) produce bit-identical certified sets and
/// counters (certSeconds and absintSeconds are wall-clock telemetry, like
/// SecStats::seconds).
Result mineAndCertify(const ir::TransitionSystem& ts, const Options& opts,
                      const sat::Budget& budget = {});

}  // namespace dfv::inv
