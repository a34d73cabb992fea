// Induction-sound structural analysis of transition systems: dependency
// cones, cone-of-influence slicing, and sequential-constant detection.
//
// This is the counterpart to dfv::absint with the opposite soundness
// trade-off.  Absint facts are reachable-from-reset: strong (value ranges,
// known bits) but valid only for BMC, which explores exactly the reachable
// prefix.  Slice facts are weaker but *inductive*:
//
//   * Cone-of-influence slicing is property-preserving.  Logic, state and
//     inputs outside the dependency cone of every root (checked output,
//     constraint, coupling invariant) cannot affect any root valuation on
//     any trace — from reset or from an arbitrary start state alike.
//   * Sequential constants are proven by a greatest-fixpoint ternary
//     simulation: start every candidate latch at its reset value, everything
//     else (inputs, demoted latches) at X, and drop any candidate whose
//     next-state value is not known-equal to its reset value; repeat to
//     fixpoint.  The surviving set S satisfies (1) the reset state assigns
//     every s in S its constant, and (2) *any* state assigning every s in S
//     its constant steps to a state that still does, for all inputs.  That
//     is an inductive invariant, so substituting the constants strengthens
//     an induction step only with facts that hold wherever the step's
//     conclusion is applied (along chains of states reachable from a
//     constant-consistent state) — sound where absint substitution is not.
//
// Consequently the SEC engine applies slicing to the BMC unrolling AND the
// induction systems (SecOptions::slice), making it the only preprocessing
// layer allowed to shrink stats.inductionAigNodes.  DRC's slice_rules.cpp
// uses the same passes to report dead state, dead inputs and stuck-at-reset
// registers with cone evidence.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/transition_system.h"
#include "slice/ternary.h"

namespace dfv::slice {

struct Options {
  /// Sever state variables (and drop logic) outside every root cone.
  bool coi = true;
  /// Detect stuck-at-reset latches and substitute their constants.
  bool seqConst = true;
};

/// Cost and effect of one sliceTransitionSystem call.
struct Stats {
  std::uint64_t statesSevered = 0;  ///< state vars outside every root cone
  std::uint64_t seqConstants = 0;   ///< scalar latches replaced by constants
  std::uint64_t nodesBefore = 0;    ///< unique IR cone nodes before
  std::uint64_t nodesAfter = 0;     ///< unique IR cone nodes after
  double seconds = 0.0;

  Stats& operator+=(const Stats& o) {
    statesSevered += o.statesSevered;
    seqConstants += o.seqConstants;
    nodesBefore += o.nodesBefore;
    nodesAfter += o.nodesAfter;
    seconds += o.seconds;
    return *this;
  }
};

/// The root set a slice preserves.
struct Roots {
  /// Output names to keep live; empty means every output.
  std::vector<std::string> outputs;
  /// Additional root expressions (e.g. SEC coupling invariants).  They may
  /// reference leaves that do not belong to the sliced system (the other
  /// side of a miter); such leaves are ignored.
  std::vector<ir::NodeRef> extra;
  /// Treat the system's constraints as roots (they gate every trace, so
  /// dropping their cone would change the property).
  bool includeConstraints = true;

  bool allOutputs() const { return outputs.empty(); }
};

/// The transitive dependency closure of a root set: the states and inputs
/// that can affect some root, plus the size of the closed cone.
struct Cone {
  std::unordered_set<ir::NodeRef> states;  ///< live state leaves
  std::unordered_set<ir::NodeRef> inputs;  ///< live input leaves
  std::uint64_t nodes = 0;  ///< unique non-leaf nodes in the closed cone
};

/// Computes the cone of influence: roots' expressions, closed under
/// "state leaf in cone -> its next-state expression is in the cone".
Cone coneOfInfluence(const ir::TransitionSystem& ts, const Roots& roots);

/// Result of the greatest-fixpoint ternary simulation.
struct SeqConstResult {
  /// Latch leaf -> the value it provably holds in every reachable and
  /// every constant-consistent state (its reset value).  Includes array
  /// states (e.g. ROMs whose next is themselves).
  std::unordered_map<ir::NodeRef, ir::Value> constants;
  unsigned iterations = 0;
};

SeqConstResult sequentialConstants(const ir::TransitionSystem& ts);

/// Per-bit generalization of sequentialConstants for *scalar* latches: the
/// greatest fixpoint over partial reset patterns.  Start every candidate
/// fully known at its reset value; each round evaluates every next-state
/// function under the current patterns (inputs and array states at X) and
/// keeps only the bits whose next value is known-equal to the reset bit.
/// The surviving pattern P_s per latch satisfies: (1) reset agrees with
/// every known bit, and (2) any state agreeing with every latch's pattern
/// steps, for all inputs, to a state that still agrees.  Like
/// sequentialConstants the facts are therefore *inductive*, not merely
/// reachable — the masks are safe candidate sources for dfv::inv and a
/// fully-known pattern coincides with a sequentialConstants scalar entry.
struct SeqTernaryResult {
  /// Scalar latch leaf -> its stuck-bit pattern.  Only latches with at
  /// least one known bit appear.
  std::unordered_map<ir::NodeRef, Ternary> masks;
  unsigned iterations = 0;
};

SeqTernaryResult sequentialTernary(const ir::TransitionSystem& ts);

/// Unique non-leaf IR nodes across every next-state, output and constraint
/// cone, counted identically before and after slicing.
std::uint64_t coneNodeCount(const ir::TransitionSystem& ts);

/// Produces a sliced copy of `ts` in the same Context.
///
/// The copy is interface-preserving: every input, state variable and output
/// keeps its name, sort and leaf node, so unrollers, counterexample
/// extraction and coupling-invariant binding index it exactly like the
/// original.  The savings are in the logic:
///
///   * a stuck-at-reset scalar latch gets `next := constant` and has its
///     constant substituted into every rebuilt expression,
///   * a state variable outside every root cone is severed: `next :=
///     current` (blasts to the already-bound state words, zero gates),
///   * an output not named in the roots is stubbed to a constant zero of
///     its width (array outputs keep their rebuilt expression),
///   * constraints are always rebuilt and kept.
///
/// Evaluating any root output or constraint of the slice from any
/// constant-consistent start state (reset included) yields the original's
/// value, cycle for cycle.
ir::TransitionSystem sliceTransitionSystem(const ir::TransitionSystem& ts,
                                           const Roots& roots,
                                           const Options& opts = {},
                                           Stats* stats = nullptr);

}  // namespace dfv::slice
