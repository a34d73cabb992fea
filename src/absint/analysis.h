// Word-level abstract interpretation over a TransitionSystem.
//
// Computes one Fact per IR node (for arrays: one element-level Fact) and one
// Fact per state variable describing every value the variable can take in any
// state reachable from reset, under arbitrary inputs.  The state facts are a
// classic dataflow fixpoint: seeded from the init values, transferred through
// the next-state functions, joined, and widened once the iteration count
// passes Options::widenAfter.  Widening snaps the hull to the nearest
// program constants (widening with thresholds — how a saturate-at-N counter
// converges to [0, N]), falling back to the known-bits hull, whose finite
// height bounds the run.
//
// Facts are *reachability* facts: they hold on every concrete trace that
// starts at reset, but NOT in an arbitrary symbolic state.  Consumers that
// reason from symbolic starts (the SEC induction step) must not use them
// uncertified: dfv::inv, which re-proves each candidate with SAT, is the
// only bridge.
//
// Environment constraints are ignored (dropping assumptions only enlarges
// the reachable set, so every fact stays sound).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "absint/domain.h"
#include "ir/transition_system.h"

namespace dfv::absint {

struct Options {
  /// Fixpoint iterations before interval widening kicks in.
  unsigned widenAfter = 16;
  /// Hard cap; if still unstable, every state fact is forced to top.
  unsigned maxIterations = 256;
  /// Node-visit budget for re-evaluating a mux arm under facts refined by
  /// the selector predicate (clamp / saturate idioms).  Exhausting it falls
  /// back to the unrefined fact, which is always sound.
  unsigned refineBudget = 512;
};

class Analysis {
 public:
  /// Runs the analysis to fixpoint.  `ts` must validate().
  static Analysis run(const ir::TransitionSystem& ts,
                      const Options& opts = Options());

  /// Fact for `n` (element-level for array-sorted nodes).  Nodes outside the
  /// analyzed cones get top — always sound.
  Fact fact(ir::NodeRef n) const;
  bool hasFact(ir::NodeRef n) const { return facts_.count(n) != 0; }

  /// Reachable-value fact for a state variable, by its current-state leaf.
  Fact stateFact(ir::NodeRef currentLeaf) const;

  unsigned iterations() const { return iterations_; }
  bool converged() const { return converged_; }
  bool widened() const { return widened_; }
  const Options& options() const { return opts_; }

  /// Sum of knownBitCount() over every visited node — a cheap precision
  /// metric for stats and benchmarks.
  std::uint64_t totalKnownBits() const;

  /// Exports the state fixpoint as 1-bit candidate predicates over the
  /// scalar state leaves of `ts` (which must be the system this Analysis
  /// ran on): interval bounds as `lo <= s` / `s <= hi` and known-bits
  /// masks as `(s & zeros) == 0` / `(s & ones) == ones`, emitted only when
  /// non-trivial.  Order is deterministic: ts.states() order, bounds before
  /// masks.  These are *reachability* facts, NOT sound for induction — the
  /// only sanctioned path into an induction hypothesis is certification
  /// through dfv::inv (see CLAUDE.md).
  std::vector<ir::NodeRef> statePredicates(
      const ir::TransitionSystem& ts) const;

  /// Annotation hook for ir::printExpr / printTransitionSystem: returns the
  /// node's fact string, or "" when nothing beyond top is known.  The
  /// returned callable references this Analysis and must not outlive it.
  std::function<std::string(ir::NodeRef)> annotator() const;

 private:
  explicit Analysis(const Options& opts) : opts_(opts) {}

  /// One evaluation context: a memo table plus (for mux-arm re-evaluation)
  /// an overlay of predicate-refined facts, a fallback scope, and a shared
  /// node-visit budget.
  struct Scope {
    std::unordered_map<ir::NodeRef, Fact> memo;
    const std::unordered_map<ir::NodeRef, Fact>* overlay = nullptr;
    Scope* base = nullptr;
    unsigned* budget = nullptr;  // nullptr = unlimited (the root scope)
  };

  Fact evalNode(ir::NodeRef n, Scope& scope);
  Fact evalMux(ir::NodeRef n, Scope& scope);
  Fact evalArm(ir::NodeRef arm,
               const std::unordered_map<ir::NodeRef, Fact>& refined,
               Scope& scope);
  void deriveRefinements(ir::NodeRef sel, Scope& scope,
                         std::unordered_map<ir::NodeRef, Fact>& thenMap,
                         std::unordered_map<ir::NodeRef, Fact>& elseMap);

  Options opts_;
  std::unordered_map<ir::NodeRef, Fact> facts_;
  std::unordered_map<ir::NodeRef, Fact> stateFacts_;
  unsigned iterations_ = 0;
  bool converged_ = true;
  bool widened_ = false;
};

}  // namespace dfv::absint
