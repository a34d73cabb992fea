// The sequential equivalence checking engine.
//
// Reconstructs the formal flow of the paper's §2: a bounded model check over
// k repeated transactions from the reset states (the base verdict), plus a
// one-transaction inductive step over symbolic start states constrained by
// the problem's coupling invariants (the full proof when it succeeds).
//
// Counterexamples are extracted as complete concrete stimulus (transaction
// variables plus every free input, per cycle), replayed against the IR
// interpreter of both sides, and returned with the observed mismatching
// output values — so a SEC failure arrives as a runnable test, the property
// the paper stresses for quickly localizing SLM/RTL divergence.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aig/bitblast.h"
#include "aig/cnf.h"
#include "aig/fraig.h"
#include "inv/inv.h"
#include "sat/solver.h"
#include "sec/transaction.h"
#include "slice/slice.h"

namespace dfv::sec {

/// Outcome of a SEC run.
enum class Verdict {
  kProvenEquivalent,    ///< BMC clean and inductive step closed
  kBoundedEquivalent,   ///< BMC clean for k transactions; induction failed
  kNotEquivalent,       ///< concrete counterexample found
  kInconclusive,        ///< a resource budget expired before BMC finished
};

const char* verdictName(Verdict v);

/// A concrete distinguishing run.
struct Counterexample {
  /// Transaction index (0-based) at which an output check failed.
  unsigned failingTransaction = 0;
  /// The check that failed.
  OutputCheck check;
  /// Values of each transaction variable, per transaction
  /// ([txn][i] parallel to problem.txnVars()).
  std::vector<std::vector<bv::BitVector>> txnVarValues;
  /// Complete per-cycle stimulus: [txn][cycle][input] parallel to each
  /// side's ts.inputs().
  std::vector<std::vector<std::vector<ir::Value>>> slmInputs;
  std::vector<std::vector<std::vector<ir::Value>>> rtlInputs;
  /// Observed mismatching values (from interpreter replay).
  bv::BitVector slmValue;
  bv::BitVector rtlValue;

  std::string summary() const;
};

/// Telemetry for one solver phase (one BMC transaction, or the inductive
/// step): SAT-statistic deltas attributable to that phase's solve calls,
/// plus their wall-clock time.  With fraig on, each phase of a check that
/// has not switched to sweeping first runs a capped unswept probe (see
/// SecOptions::fraig).  `conflicts` and `propagations` are the work the
/// phase budget pays for: the fraig sweep plus the solve after it (or the
/// one solve with fraig off); the probe's are in `probeConflicts` and
/// `probePropagations`, outside the budget.  `seconds`, `decisions`,
/// `restarts` and the clause counts cover every solve on the miter's
/// solvers, probe included, and no sweep.  The fraig counters
/// cover the phase's swept deltas: the miter nodes its facts and query
/// added since the previous phase, plus, in the phase a check switches,
/// the earlier phases' deltas it replays.  A delta replayed from the
/// check's frame cache (aig/frame.h) reports the stored node counts and no
/// SAT work.  Populated whether or not the phase hit its budget, so an
/// interrupted run still reports how far it got.
struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learntClauses = 0;
  std::uint64_t deletedClauses = 0;
  /// The unswept probe's work (zero with fraig off, or once swept).
  std::uint64_t probeConflicts = 0;
  std::uint64_t probePropagations = 0;
  /// The phase's sweep or a solve in it ran out of budget (kUnknown).
  bool budgetExhausted = false;
  /// SAT-sweeping cost/effect for this phase's delta (all zero when
  /// SecOptions::fraig is off).
  std::size_t fraigNodesBefore = 0;  ///< and-nodes swept (the delta)
  std::size_t fraigNodesAfter = 0;   ///< of those, left after merging
  std::size_t fraigMergedNodes = 0;
  std::uint64_t fraigSatCalls = 0;
  std::uint64_t fraigMemoHits = 0;  ///< sweeps replayed from the frame cache
  double fraigTimeMs = 0.0;  ///< the whole frame pipeline's wall time
  /// Always 0; only dfvbench reads it, and a benchmark change removes it.
  std::size_t rewriteNodesBefore = 0;
};

/// Wall time of the word-level abstract interpretation SEC runs: the
/// invariant miner's fixpoint (inv::Stats::absintSeconds), both sides.
struct AbsintStats {
  double seconds = 0.0;
};

/// Cost and effect of the induction-sound structural slicing preprocessing
/// (SecOptions::slice): both sides are sliced once, before anything is
/// unrolled, and the result feeds the BMC and induction systems alike.
struct SliceStats {
  bool applied = false;
  slice::Stats slm{};  ///< filled by sliceTransitionSystem itself
  slice::Stats rtl{};
  double seconds = 0.0;  ///< both sides' analysis + rebuild wall-clock
};

/// Cost and effect of the certified-invariant strengthening pass
/// (SecOptions::invariants): dfv::inv runs once per side on the systems the
/// induction step will use, and the certified predicates join the induction
/// hypothesis (plus free BMC boundary assertions).  Counters aggregate both
/// sides; certification solver cost is kept here, NOT in
/// satConflicts/satDecisions — phase telemetry is unchanged by
/// strengthening.
struct InvStats {
  bool applied = false;  ///< the pass ran (invariants on, induction wanted)
  std::uint64_t candidates = 0;
  std::uint64_t certified = 0;
  std::uint64_t rounds = 0;
  std::uint64_t dropped = 0;
  std::uint64_t certConflicts = 0;
  std::uint64_t certPropagations = 0;
  double certSeconds = 0.0;
  /// Certification exhausted the induction budget pool on some side: that
  /// side contributed no invariants and the induction solve ran under the
  /// drained remainder (so it reports its own budgetExhausted).
  bool budgetExhausted = false;
};

struct SecStats {
  unsigned transactionsChecked = 0;
  std::size_t aigNodes = 0;           ///< total across both graphs
  std::size_t bmcAigNodes = 0;        ///< the BMC unrolling graph
  std::size_t inductionAigNodes = 0;  ///< the induction graph (0 if unused)
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  /// Fraig totals: the sums of the per-phase fields over bmcTransactions
  /// and induction.
  std::size_t fraigMergedNodes = 0;
  std::uint64_t fraigSatCalls = 0;
  std::uint64_t fraigMemoHits = 0;
  double fraigTimeMs = 0.0;
  /// Always 0; only dfvbench reads it, and a benchmark change removes it.
  double rewriteTimeMs = 0.0;
  double seconds = 0.0;
  bool inductionAttempted = false;
  bool inductionClosed = false;
  /// One entry per BMC transaction attempted, in order.  Transaction 0 also
  /// accounts for the constraint-vacuity solve.
  std::vector<PhaseStats> bmcTransactions;
  /// The inductive-step solve (zeroed when induction never ran).
  PhaseStats induction{};
  /// Abstract-interpretation time (the invariant miner's fixpoint).
  AbsintStats absint{};
  /// Structural slicing telemetry (see SecOptions::slice).
  SliceStats slice{};
  /// Certified-invariant strengthening telemetry (see
  /// SecOptions::invariants).
  InvStats inv{};
};

/// The run's deterministic counters under their report/journal names — the
/// only place a counter is named, so a new one is one line here.  No wall
/// time: the same check reports the same map on any thread, so a plan run
/// on an executor and a serial run of it diff clean block by block.
std::map<std::string, std::uint64_t> deterministicCounters(const SecStats& s);

struct SecResult {
  Verdict verdict = Verdict::kBoundedEquivalent;
  std::optional<Counterexample> cex;
  SecStats stats;
};

struct SecOptions {
  /// Number of transactions to unroll from reset; at least 1.
  unsigned boundTransactions = 4;
  /// Attempt the inductive step to upgrade bounded -> proven.
  bool tryInduction = true;
  /// Apply equality-shaped coupling invariants structurally (shared
  /// symbolic variables) instead of as CNF constraints.  On by default;
  /// exposed so bench_sec_ablation can quantify the optimization (see
  /// DESIGN.md §7).  Verdicts are identical either way.
  bool structuralAliasing = true;
  /// SAT-sweep (fraig) the miter on demand.  Each check first solves every
  /// BMC and induction phase on the plain unrolling, as a probe capped at
  /// a fixed number of propagations (and the phase's own caps).  The first
  /// probe that runs out moves the check to the sweep pipeline for good:
  /// from then on each solve sweeps only the delta it adds, in a
  /// frame-local solver with the delta's frontier free — seeded random
  /// simulation proposes candidate equivalence classes, incremental SAT
  /// proves or refutes them, and proven-equal nodes are merged before the
  /// main solver sees the formula (see aig/fraig.h, aig/frame.h and
  /// DESIGN.md §13).  Each distinct delta is swept once per check; a
  /// repeat, in BMC or induction, replays the stored sweep.  Sweep proofs
  /// and the solve after them are charged to the phase budget; the probe is
  /// not.  Composes with structuralAliasing: aliasing makes the two sides
  /// share state variables, fraiging then proves and merges the internal
  /// points that became semantically equal.  Only unconditional
  /// equivalences are merged, so verdicts are identical either way.  Off,
  /// each phase is one solve on the plain unrolling under the phase budget.
  bool fraig = true;
  /// Tuning for the fraig pass (seed, stimulus size, per-candidate budget).
  aig::FraigOptions fraigOptions{};
  /// Slice both sides (dfv::slice) against the checked outputs, coupling
  /// invariants and constraints before anything is unrolled: state
  /// variables and logic outside every property cone are severed, and
  /// latches the ternary fixpoint proves stuck at their reset value are
  /// substituted by constants.  Both transforms are sound from an
  /// arbitrary start state (slicing is property-preserving; the stuck-at
  /// facts are inductive invariants), so they apply to the BMC unrolling
  /// AND the induction systems.  This is the only preprocessing layer
  /// allowed to shrink stats.inductionAigNodes; verdicts are identical on
  /// or off (tests and bench_sec_ablation assert this).
  bool slice = true;
  /// Tuning for the slicing passes (COI severing, constant detection).
  slice::Options sliceOptions{};
  /// Mine candidate invariants from the absint fixpoint and the ternary
  /// greatest fixpoint, certify a simultaneously-inductive subset with
  /// dfv::inv's Houdini loop, and conjoin the certified predicates to the
  /// transaction-induction hypothesis (they are also asserted at BMC
  /// transaction boundaries as free strengthening).  This is the ONLY
  /// channel through which reachability-shaped facts reach the induction
  /// step: soundness rests on the per-predicate SAT certificate, not on the
  /// analyzers.  Certification solves are charged against inductionBudget
  /// as a shared pool — what certification spends, the induction solve no
  /// longer has — so capped runs stay machine-independent.  BMC-only
  /// verdicts are identical on or off (the assertions are entailed facts);
  /// induction can only gain (bounded -> proven), never lose, a verdict.
  bool invariants = true;
  /// Tuning for mining and certification (see inv::Options).
  inv::Options invOptions{};
  /// Resource cap applied to each BMC solve (one per transaction, plus the
  /// constraint-vacuity check), shared with the fraig sweep that precedes
  /// it; the unswept probe runs under these caps too but does not draw on
  /// them.  Default-constructed = unlimited.  When a BMC solve or its sweep
  /// is cut off the engine stops and returns kInconclusive — neither
  /// equivalence nor a counterexample is known at that depth.
  sat::Budget bmcBudget{};
  /// Resource cap for the inductive-step solve and its fraig sweep.  When
  /// it is cut off the bounded verdict (which is already sound) stands, and
  /// stats.induction.budgetExhausted records the failed upgrade.
  sat::Budget inductionBudget{};
};

/// Runs the equivalence check.  Throws CheckError on malformed problems
/// (e.g. no output checks) and if a counterexample fails to replay — that
/// would indicate an engine bug, never a model property.  Budget exhaustion
/// is not an error: the run returns Verdict::kInconclusive (or the sound
/// bounded verdict, for an induction-only cutoff) with per-phase stats.
SecResult checkEquivalence(const SecProblem& problem,
                           const SecOptions& options = {});

}  // namespace dfv::sec
