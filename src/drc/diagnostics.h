// Unified design-rule-check diagnostics.
//
// The paper's §4 prescribes *design rules* that make an SLM/RTL pair
// verifiable; commercial SLEC flows run exactly this kind of static lint
// before launching proofs.  Every DRC rule in dfv::drc produces a
// Diagnostic: a stable rule identifier, a severity, the layer the rule
// inspected (SLM source, IR, RTL netlist, SEC problem shape), a
// human-readable location path, and a message.  A DrcReport aggregates the
// diagnostics of one run and serializes through common::JsonWriter, the
// writer core::PlanReport::json also uses, so CI systems get one
// machine-readable stream for lint results and verification results alike.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"

namespace dfv::drc {

/// How bad a violation is.  kError means downstream tools (simulation, SEC)
/// are unsound or outright impossible on the artifact; kWarning means the
/// pair is likely unverifiable or needlessly expensive to verify; kInfo is
/// advisory.
enum class Severity { kInfo, kWarning, kError };

/// Which layer of the stack a rule inspected.
enum class Layer {
  kSlm,  ///< SLM-C source (the §4.3 conditioning rules)
  kIr,   ///< word-level transition system
  kRtl,  ///< structural netlist
  kSec,  ///< SEC problem shape (transaction map + mergeability)
};

/// Stable rule identifiers.  Grouped by layer; the name() strings are the
/// machine-readable ids used in JSON output and never change meaning.
enum class Rule {
  // ----- RTL netlist rules -------------------------------------------------
  kUndrivenNet,         ///< net with no driver feeds logic or a port
  kMultiplyDrivenNet,   ///< net with more than one driver
  kUnconnectedPort,     ///< input port never read / output port undriven
  kWidthMismatch,       ///< cell connection widths violate the op's typing
  kUnconnectedRegister, ///< register with no d input (no next-state driver)
  kDeadCell,            ///< cell output reaches no port, register or memory
  kUnreachableMuxArm,   ///< mux selector is provably constant
  kConstantOutput,      ///< output port provably constant (RTL const-prop)
  kCombinationalCycle,  ///< combinational loop (full cell path reported)
  // ----- IR / TransitionSystem rules ---------------------------------------
  kUnreadInput,         ///< declared input feeds no next/output/constraint
  kLatentLatch,         ///< state var whose next is its own current leaf
  kMissingNext,         ///< state var with no next function at all
  kConstantTsOutput,    ///< output expression folds to a constant
  kVacuousConstraint,   ///< constraint folds to false: SEC passes vacuously
  kTrivialConstraint,   ///< constraint folds to true: dead weight
  // ----- SEC-shape rules ---------------------------------------------------
  kSecUnmappedInput,    ///< side input never bound in the transaction map
  kSecUncheckedOutput,  ///< side output never sampled by an output check
  kSecGuardAccumulation,///< expensive op guarded by accumulated exit flags
                        ///< (the gcd breakIf trap: cannot alias with a
                        ///< single-test FSM guard)
  kSecMulShapeMismatch, ///< multiplier/divider shapes differ across sides,
                        ///< defeating BitBlaster::multiplier canonicalization
  // ----- semantic (absint-driven) rules -------------------------------------
  kLossyTruncation,     ///< truncation drops bits not proven zero
  kPossibleOverflow,    ///< add/mul may wrap at its result width
  kUninitMemoryRead,    ///< array read may hit elements no write reaches
  kSecOutputRangeMismatch, ///< checked SLM/RTL outputs have provably
                        ///< mismatched value ranges (disjoint = error)
  // ----- SLM conditioning rules (adapter over slmc::lint, §4.3) ------------
  kSlmDynamicAllocation,
  kSlmPointerAliasing,
  kSlmNonStaticLoopBound,
  kSlmExternalCall,
  kSlmMisplacedReturn,
  kSlmMissingReturn,
  kSlmBreakOutsideLoop,
  // ----- structural (slice-driven) rules ------------------------------------
  kSliceDeadState,      ///< state var in no output/constraint cone
  kSliceDeadInput,      ///< input read only by logic outside every cone
  kSliceDeadLogic,      ///< IR nodes feeding no output or constraint
  kSliceStuckAtReset,   ///< latch provably stuck at its reset value
                        ///< (ternary greatest fixpoint; inductive fact)
  kInvariantStrengthened,     ///< certified inductive invariant available
  kInvariantCandidateStorm,   ///< mined candidates overflow the cert cap
  // Sentinel for allRules(); keep last.
  kRuleCount_,
};

/// Stable machine-readable rule id, e.g. "undriven-net".
const char* ruleName(Rule rule);
/// Every registered rule, in declaration order (for exhaustive checks like
/// the drc_test id-uniqueness and documentation guards).
std::vector<Rule> allRules();
/// "info" / "warning" / "error".
const char* severityName(Severity s);
/// "slm" / "ir" / "rtl" / "sec".
const char* layerName(Layer l);

/// One finding.
struct Diagnostic {
  Rule rule;
  Severity severity;
  Layer layer;
  std::string location;  ///< path, e.g. "fir/rtl/net 'acc'"
  std::string message;   ///< what is wrong and what to do about it
  /// Machine-checkable supporting facts, e.g. the absint interval/known-bits
  /// string a semantic rule derived its claim from.  Empty for structural
  /// rules.
  std::string evidence;

  /// "error[undriven-net] rtl fir/net 'acc': ..." — one line, with
  /// " [evidence]" appended when present.
  std::string str() const;
};

/// Aggregated result of one DRC run.
class DrcReport {
 public:
  void add(Rule rule, Severity severity, Layer layer, std::string location,
           std::string message, std::string evidence = std::string());
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  unsigned count(Severity s) const;
  unsigned errors() const { return count(Severity::kError); }
  unsigned warnings() const { return count(Severity::kWarning); }
  /// True when a rule produced at least one diagnostic (any severity).
  bool fired(Rule rule) const;
  /// Distinct rules that produced diagnostics.
  std::vector<Rule> firedRules() const;

  /// No errors and no warnings (info-level findings do not dirty a design).
  bool clean() const { return errors() == 0 && warnings() == 0; }

  /// "2 errors, 1 warning" plus the first error's text, for block details.
  std::string summary() const;

  /// {"errors":N,"warnings":N,"infos":N,"clean":bool,"diagnostics":[...]}.
  std::string toJson() const;
  /// Writes the toJson() object as the writer's next value.
  void writeJson(common::JsonWriter& w) const;

  /// Appends every diagnostic of `other` (used to merge per-layer passes).
  void merge(const DrcReport& other);

 private:
  std::vector<Diagnostic> diags_;
};

/// The JSON string escaper lives in common; this name stays for callers
/// that reach it through the DRC header.
using common::jsonEscape;

}  // namespace dfv::drc
