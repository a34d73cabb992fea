#include "sec/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "aig/frame.h"
#include "fault/fault.h"
#include "ir/eval.h"

namespace dfv::sec {

const char* verdictName(Verdict v) {
  switch (v) {
    case Verdict::kProvenEquivalent: return "proven-equivalent";
    case Verdict::kBoundedEquivalent: return "bounded-equivalent";
    case Verdict::kNotEquivalent: return "NOT-equivalent";
    case Verdict::kInconclusive: return "inconclusive";
  }
  DFV_UNREACHABLE("bad verdict");
}

std::map<std::string, std::uint64_t> deterministicCounters(
    const SecStats& s) {
  std::uint64_t propagations =
      s.induction.propagations + s.induction.probePropagations;
  std::uint64_t learnts = s.induction.learntClauses;
  for (const PhaseStats& p : s.bmcTransactions) {
    propagations += p.propagations + p.probePropagations;
    learnts += p.learntClauses;
  }
  return {
      {"transactions_checked", s.transactionsChecked},
      {"aig_nodes", s.aigNodes},
      {"bmc_aig_nodes", s.bmcAigNodes},
      {"induction_aig_nodes", s.inductionAigNodes},
      {"sat_conflicts", s.satConflicts},
      {"sat_decisions", s.satDecisions},
      {"sat_propagations", propagations},
      {"sat_learnts", learnts},
      {"fraig_sat_calls", s.fraigSatCalls},
      {"fraig_memo_hits", s.fraigMemoHits},
      {"slice_states_severed",
       s.slice.slm.statesSevered + s.slice.rtl.statesSevered},
      {"slice_seq_constants",
       s.slice.slm.seqConstants + s.slice.rtl.seqConstants},
      {"inv_candidates", s.inv.candidates},
      {"inv_certified", s.inv.certified},
  };
}

std::string Counterexample::summary() const {
  std::ostringstream os;
  os << "transaction " << failingTransaction << ": SLM." << check.slmOutput
     << "@" << check.slmCycle << " = " << slmValue.toString(16) << " vs RTL."
     << check.rtlOutput << "@" << check.rtlCycle << " = "
     << rtlValue.toString(16);
  if (!txnVarValues.empty()) {
    os << "; stimulus:";
    for (std::size_t t = 0; t < txnVarValues.size(); ++t) {
      os << " txn" << t << "(";
      for (std::size_t i = 0; i < txnVarValues[t].size(); ++i) {
        if (i > 0) os << ",";
        os << txnVarValues[t][i].toString(16);
      }
      os << ")";
    }
  }
  return os.str();
}

namespace {

/// A symbolic value: scalar word or array of words.
struct SymVal {
  aig::Word scalar;
  aig::ArrayWord array;
  bool isArray = false;

  static SymVal ofScalar(aig::Word w) {
    SymVal v;
    v.scalar = std::move(w);
    return v;
  }
  static SymVal ofArray(aig::ArrayWord a) {
    SymVal v;
    v.array = std::move(a);
    v.isArray = true;
    return v;
  }
};

/// Records one free (unbound) input instance so the counterexample can be
/// extracted later.
struct FreeInput {
  unsigned txn;
  unsigned cycle;
  std::size_t inputIndex;  // into ts.inputs()
  aig::Word word;
};

/// Symbolically unrolls one side of the problem, transaction by transaction.
/// `ts` is the system to unroll — the problem's side, or a sliced copy of
/// it (same Context, so the problem's input/state leaves and output names
/// are shared and all bindings stay valid).
class Unroller {
 public:
  Unroller(const SecProblem& problem, Side side,
           const ir::TransitionSystem& ts, aig::Aig& g)
      : problem_(problem),
        side_(side),
        ts_(ts),
        g_(g) {
    ts_.validate();
    for (ir::NodeRef in : ts_.inputs())
      DFV_CHECK_MSG(!in->type().isArray(),
                    "SEC requires scalar side inputs; '"
                        << in->name() << "' is an array (map it at the "
                        << "transactor level instead)");
    // Index the bindings of this side by (input leaf, cycle).
    for (const InputBinding& b : problem.bindings())
      if (b.side == side) bindings_[{b.input, b.cycle}] = b.value;
  }

  /// Initializes the symbolic state from the reset values (BMC).
  void initFromReset() {
    state_.clear();
    for (const auto& sv : ts_.states()) state_.push_back(constState(sv.init));
  }

  /// Initializes the symbolic state with fresh variables (induction step).
  /// States present in `aliases` reuse the given symbolic value instead —
  /// the structural form of an assumed state equality (see the coupling-
  /// invariant handling in checkEquivalence).
  void initSymbolic(
      const std::string& tag,
      const std::unordered_map<ir::NodeRef, SymVal>* aliases = nullptr) {
    state_.clear();
    aig::BitBlaster frame(g_);
    for (const auto& sv : ts_.states()) {
      if (aliases != nullptr) {
        auto it = aliases->find(sv.current);
        if (it != aliases->end()) {
          state_.push_back(it->second);
          continue;
        }
      }
      const ir::Type& t = sv.current->type();
      if (t.isArray()) {
        aig::ArrayWord a;
        for (unsigned i = 0; i < t.depth; ++i)
          a.elems.push_back(frame.freshWord(
              t.width, tag + sv.name() + "#" + std::to_string(i)));
        state_.push_back(SymVal::ofArray(std::move(a)));
      } else {
        state_.push_back(
            SymVal::ofScalar(frame.freshWord(t.width, tag + sv.name())));
      }
    }
  }

  /// Current symbolic value per state leaf (call right after initSymbolic).
  std::unordered_map<ir::NodeRef, SymVal> stateBindingSnapshot() const {
    std::unordered_map<ir::NodeRef, SymVal> snap;
    for (std::size_t i = 0; i < ts_.states().size(); ++i)
      snap.emplace(ts_.states()[i].current, state_[i]);
    return snap;
  }

  /// Runs one transaction with the given transaction-variable words.
  /// Sampled outputs land in outputsAtCycle(); free inputs are recorded.
  void runTransaction(unsigned txnIndex,
                      const std::vector<aig::Word>& txnVarWords) {
    outputs_.assign(problem_.cycles(side_), {});
    for (unsigned cycle = 0; cycle < problem_.cycles(side_); ++cycle) {
      aig::BitBlaster frame(g_);
      bindLeaves(frame, txnVarWords);
      // Inputs: bound expression or fresh free word.
      for (std::size_t i = 0; i < ts_.inputs().size(); ++i) {
        ir::NodeRef in = ts_.inputs()[i];
        auto it = bindings_.find({in, cycle});
        if (it != bindings_.end()) {
          frame.bindScalar(in, frame.blast(it->second));
        } else {
          aig::Word w = frame.freshWord(
              in->width(), sideTag() + in->name() + "@t" +
                               std::to_string(txnIndex) + "c" +
                               std::to_string(cycle));
          freeInputs_.push_back(FreeInput{txnIndex, cycle, i, w});
          frame.bindScalar(in, std::move(w));
        }
      }
      // Outputs sampled this cycle.
      auto& outs = outputs_[cycle];
      for (const auto& o : ts_.outputs())
        outs.emplace(o.name, frame.blast(o.expr));
      // Advance state (simultaneous).
      std::vector<SymVal> next;
      next.reserve(state_.size());
      for (const auto& sv : ts_.states()) {
        if (sv.current->type().isArray())
          next.push_back(SymVal::ofArray(frame.blastArray(sv.next)));
        else
          next.push_back(SymVal::ofScalar(frame.blast(sv.next)));
      }
      state_ = std::move(next);
    }
  }

  const aig::Word& outputAt(const std::string& name, unsigned cycle) const {
    DFV_CHECK(cycle < outputs_.size());
    auto it = outputs_[cycle].find(name);
    DFV_CHECK_MSG(it != outputs_[cycle].end(), "no sampled output " << name);
    return it->second;
  }

  const std::vector<FreeInput>& freeInputs() const { return freeInputs_; }
  const std::vector<SymVal>& state() const { return state_; }
  const ir::TransitionSystem& ts() const { return ts_; }

  /// Binds this side's state leaves into `frame` from the current symbolic
  /// state (used for invariant blasting too).
  void bindStateLeaves(aig::BitBlaster& frame) const {
    for (std::size_t i = 0; i < ts_.states().size(); ++i) {
      ir::NodeRef leaf = ts_.states()[i].current;
      if (state_[i].isArray)
        frame.bindArray(leaf, state_[i].array);
      else
        frame.bindScalar(leaf, state_[i].scalar);
    }
  }

 private:
  std::string sideTag() const { return side_ == Side::kSlm ? "slm." : "rtl."; }

  void bindLeaves(aig::BitBlaster& frame,
                  const std::vector<aig::Word>& txnVarWords) {
    for (std::size_t i = 0; i < problem_.txnVars().size(); ++i)
      frame.bindScalar(problem_.txnVars()[i], txnVarWords[i]);
    bindStateLeaves(frame);
  }

  SymVal constState(const ir::Value& init) {
    aig::BitBlaster frame(g_);
    if (init.isArray) {
      aig::ArrayWord a;
      for (const auto& e : init.array) a.elems.push_back(frame.constWord(e));
      return SymVal::ofArray(std::move(a));
    }
    return SymVal::ofScalar(frame.constWord(init.scalar));
  }

  struct BindKey {
    ir::NodeRef input;
    unsigned cycle;
    bool operator==(const BindKey&) const = default;
  };
  struct BindKeyHash {
    std::size_t operator()(const BindKey& k) const {
      return std::hash<const void*>()(k.input) * 31 + k.cycle;
    }
  };

  const SecProblem& problem_;
  Side side_;
  const ir::TransitionSystem& ts_;
  aig::Aig& g_;
  std::unordered_map<BindKey, ir::NodeRef, BindKeyHash> bindings_;
  std::vector<SymVal> state_;
  std::vector<std::unordered_map<std::string, aig::Word>> outputs_;
  std::vector<FreeInput> freeInputs_;
};

/// Runs one budgeted solve and folds its cost into `phase` (several solves
/// may share one phase entry, e.g. the vacuity check and transaction 0).
/// A probe's conflicts and propagations land in the probe counters, and its
/// kUnknown is not the phase's: the phase goes on to sweep.
sat::Result solveIntoPhase(sat::Solver& solver,
                           const std::vector<sat::Lit>& assumptions,
                           const sat::Budget& budget, PhaseStats& phase,
                           bool probe = false) {
  const sat::SolverStats before = solver.stats();
  const auto t0 = std::chrono::steady_clock::now();
  const sat::Result r = solver.solve(assumptions, budget);
  const sat::SolverStats& after = solver.stats();
  phase.seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  (probe ? phase.probeConflicts : phase.conflicts) +=
      after.conflicts - before.conflicts;
  (probe ? phase.probePropagations : phase.propagations) +=
      after.propagations - before.propagations;
  phase.decisions += after.decisions - before.decisions;
  phase.restarts += after.restarts - before.restarts;
  phase.learntClauses += after.learntClauses - before.learntClauses;
  phase.deletedClauses += after.deletedClauses - before.deletedClauses;
  if (r == sat::Result::kUnknown && !probe) phase.budgetExhausted = true;
  return r;
}

/// Shrinks a budget by work already charged to it.  Finite caps drain to a
/// minimal positive remainder — never to 0, which would mean "unlimited" —
/// so an exhausted budget makes the next solve fail fast (kUnknown ->
/// budgetExhausted) instead of silently lifting the cap.
sat::Budget drainBudget(sat::Budget b, std::uint64_t conflicts,
                        std::uint64_t propagations, double seconds) {
  if (b.maxConflicts > 0)
    b.maxConflicts = std::max<std::int64_t>(
        1, b.maxConflicts - static_cast<std::int64_t>(conflicts));
  if (b.maxPropagations > 0)
    b.maxPropagations = std::max<std::int64_t>(
        1, b.maxPropagations - static_cast<std::int64_t>(propagations));
  if (b.maxSeconds > 0) b.maxSeconds = std::max(1e-9, b.maxSeconds - seconds);
  return b;
}

/// Propagations an unswept probe may spend before its check moves to the
/// sweep pipeline (the phase's own caps bind too).  DESIGN.md §13 has the
/// measured cap table.
constexpr std::int64_t kProbePropagations = 300000;

/// The solver interface the engine drives: one incremental pipeline for the
/// whole check, in one of two modes.
///
/// *Unswept*: one sat::Solver and one CnfEncoder over the unrolling graph.
/// Each solve() clausifies the facts asserted since the previous solve and
/// solves its query there.  With fraig off that solve is the phase's; with
/// fraig on it is a probe capped at kProbePropagations, charged to the
/// probe counters and not to the phase budget.
///
/// *Swept*: the first probe that comes back kUnknown moves the check here
/// for good.  The unswept solver is dropped, and a fresh solver and encoder
/// work on a persistent output graph that an aig::FrameCache::Session maps
/// the unrolling into.  Every earlier solve's facts and query are replayed
/// into the session in order, so the frame cache sees the same deltas as a
/// check swept from the start.  Each solve then hands the not-yet-mapped
/// cone of its facts and query to the session, which sweeps that delta in a
/// frame-local solver, or replays it from the check's cache when an equal
/// delta was swept before, and clausifies only what is new.  A miter whose
/// check already holds swept frames (the induction miter after BMC
/// switched) starts swept.  Model extraction maps unrolling-graph literals
/// through the session's map, so counterexamples are exact.
///
/// No sweep ever runs on the miter's solver, so facts (constraints,
/// certified invariants, "outputs equal at depth t") are plain units.
class Miter {
 public:
  /// `cache` is null exactly when fraig is off.
  Miter(aig::Aig& g, aig::FrameCache* cache) : g_(g), cache_(cache) {
    if (cache_ != nullptr && cache_->size() > 0) {
      openSwept();
    } else {
      solver_.emplace();
      enc_.emplace(g_, *solver_);
    }
  }

  /// Asserts `l` for every later solve (clausified by the next solve).
  void assertTrue(aig::Lit l) { pending_.push_back(l); }

  /// Solves the accumulated assertions, assuming `query` unless it is
  /// aig::kTrue (the constraint-vacuity form of the question).  The sweep
  /// and the solve share `budget`; a sweep that spends it ends the phase
  /// with kUnknown, after which the miter is not solved again.
  sat::Result solve(aig::Lit query, const sat::Budget& budget,
                    PhaseStats& phase) {
    Group group{std::move(pending_), query};
    pending_.clear();
    std::vector<Group> groups;  // to sweep: one, unless the check switches
    if (!frames_) {
      for (const aig::Lit f : group.facts) solver_->addClause(enc_->satLit(f));
      std::vector<sat::Lit> assumptions;
      if (query != aig::kTrue) assumptions.push_back(enc_->satLit(query));
      if (cache_ == nullptr)
        return solveIntoPhase(*solver_, assumptions, budget, phase);
      sat::Budget probe = budget;
      probe.maxPropagations =
          budget.maxPropagations > 0
              ? std::min(budget.maxPropagations, kProbePropagations)
              : kProbePropagations;
      history_.push_back(std::move(group));
      const sat::Result r =
          solveIntoPhase(*solver_, assumptions, probe, phase, /*probe=*/true);
      if (r != sat::Result::kUnknown) return r;
      openSwept();
      groups.swap(history_);
    } else {
      groups.push_back(std::move(group));
    }
    // Sweep the groups in order under the phase budget, then solve the last
    // one's query.
    sat::Budget left = budget;
    aig::Lit mappedQuery = aig::kTrue;
    for (const Group& grp : groups) {
      std::vector<aig::Lit> roots = grp.facts;
      if (grp.query != aig::kTrue) roots.push_back(grp.query);
      const aig::FrameCache::Result& fr = frames_->extend(g_, roots, left);
      const aig::FraigStats& fs = fr.stats.fraig;
      // Delta extraction, lookup and append count as sweep time.
      phase.fraigNodesBefore += fs.nodesBefore;
      phase.fraigNodesAfter += fs.nodesAfter;
      phase.fraigMergedNodes += fs.mergedNodes;
      phase.fraigSatCalls += fs.satCalls;
      phase.fraigMemoHits += fr.stats.cacheHit ? 1 : 0;
      phase.fraigTimeMs += fr.stats.seconds * 1e3;
      phase.conflicts += fs.conflicts;
      phase.propagations += fs.propagations;
      sweepConflicts_ += fs.conflicts;
      sweepDecisions_ += fs.decisions;
      left = drainBudget(left, fs.conflicts, fs.propagations, fs.seconds);
      for (std::size_t i = 0; i < grp.facts.size(); ++i)
        solver_->addClause(enc_->satLit(fr.roots[i]));
      if (fs.budgetExhausted) {
        phase.budgetExhausted = true;
        return sat::Result::kUnknown;
      }
      if (grp.query != aig::kTrue) mappedQuery = fr.roots.back();
    }
    std::vector<sat::Lit> assumptions;
    if (query != aig::kTrue) assumptions.push_back(enc_->satLit(mappedQuery));
    return solveIntoPhase(*solver_, assumptions, left, phase);
  }

  /// After kSat: the model value of an unrolling-graph literal.
  bool modelOf(aig::Lit l, bool def) {
    if (frames_) {
      if (!frames_->result().isMapped(l)) return def;
      l = frames_->result().map(l);
    }
    return solver_->modelValueOr(enc_->satLit(l), def);
  }

  /// Folds this miter's solver totals — the probe solver's, the swept
  /// solver's and the frame-local sweep solvers' — into the run stats.
  void foldInto(SecStats& stats) const {
    const sat::SolverStats& ss = solver_->stats();
    stats.satConflicts += ss.conflicts + sweepConflicts_;
    stats.satDecisions += ss.decisions + sweepDecisions_;
  }

 private:
  /// One solve's root group: the facts asserted before it, then its query.
  struct Group {
    std::vector<aig::Lit> facts;
    aig::Lit query;
  };

  /// Moves the miter to swept mode: drops the unswept solver (its totals
  /// stay counted) before the swept one exists, so only one lives at a
  /// time.
  void openSwept() {
    if (solver_) {
      sweepConflicts_ += solver_->stats().conflicts;
      sweepDecisions_ += solver_->stats().decisions;
    }
    enc_.reset();
    solver_.reset();
    solver_.emplace();
    frames_.emplace(*cache_, out_);
    enc_.emplace(out_, *solver_);
  }

  aig::Aig& g_;
  aig::FrameCache* cache_;
  aig::Aig out_;  // the swept graph (swept mode only)
  std::optional<sat::Solver> solver_;
  std::optional<aig::CnfEncoder> enc_;
  std::optional<aig::FrameCache::Session> frames_;  // set in swept mode
  std::vector<aig::Lit> pending_;  // facts asserted since the last solve
  std::vector<Group> history_;     // unswept solves so far (fraig on)
  // Work of solvers that are not solver_: the frame-local sweeps' and the
  // dropped unswept solver's.
  std::uint64_t sweepConflicts_ = 0;
  std::uint64_t sweepDecisions_ = 0;
};

bv::BitVector extractWord(Miter& miter, const aig::Word& w) {
  bv::BitVector v(static_cast<unsigned>(w.size()));
  for (std::size_t i = 0; i < w.size(); ++i)
    v.setBit(static_cast<unsigned>(i), miter.modelOf(w[i], false));
  return v;
}

/// Builds the complete concrete stimulus for one side from the model.
std::vector<std::vector<std::vector<ir::Value>>> extractSideInputs(
    const SecProblem& problem, Side side, const Unroller& unroller,
    Miter& miter,
    const std::vector<std::vector<bv::BitVector>>& txnVarValues,
    unsigned numTxns) {
  const ir::TransitionSystem& ts = problem.side(side);
  const unsigned cycles = problem.cycles(side);
  // Start with every input zero-filled, then overwrite bound + free.
  std::vector<std::vector<std::vector<ir::Value>>> result(numTxns);
  for (auto& txn : result) {
    txn.assign(cycles, {});
    for (auto& cyc : txn)
      for (ir::NodeRef in : ts.inputs())
        cyc.push_back(ir::Value::zeroOf(in->type()));
  }
  // Bound inputs: evaluate the mapping expressions concretely per txn.
  for (unsigned t = 0; t < numTxns; ++t) {
    ir::Env env;
    for (std::size_t i = 0; i < problem.txnVars().size(); ++i)
      env.emplace(problem.txnVars()[i], ir::Value(txnVarValues[t][i]));
    ir::Evaluator ev(env);
    for (const InputBinding& b : problem.bindings()) {
      if (b.side != side) continue;
      for (std::size_t i = 0; i < ts.inputs().size(); ++i)
        if (ts.inputs()[i] == b.input)
          result[t][b.cycle][i] = ev.eval(b.value);
    }
  }
  // Free inputs: straight from the model.
  for (const FreeInput& f : unroller.freeInputs()) {
    if (f.txn >= numTxns) continue;
    result[f.txn][f.cycle][f.inputIndex] =
        ir::Value(extractWord(miter, f.word));
  }
  return result;
}

/// Replays a counterexample on the IR interpreters and fills in the observed
/// mismatch; throws if the replay does not reproduce a mismatch.
void replayCounterexample(const SecProblem& problem, Counterexample& cex) {
  ir::TsSimulator slmSim(problem.side(Side::kSlm));
  ir::TsSimulator rtlSim(problem.side(Side::kRtl));
  const unsigned numTxns = cex.failingTransaction + 1;
  for (unsigned t = 0; t < numTxns; ++t) {
    // Collect sampled outputs for this transaction.
    std::vector<ir::TsSimulator::StepResult> slmSteps, rtlSteps;
    for (unsigned c = 0; c < problem.cycles(Side::kSlm); ++c)
      slmSteps.push_back(slmSim.step(cex.slmInputs[t][c]));
    for (unsigned c = 0; c < problem.cycles(Side::kRtl); ++c)
      rtlSteps.push_back(rtlSim.step(cex.rtlInputs[t][c]));
    if (t != cex.failingTransaction) continue;
    // Find the claimed failing check and record observed values.
    const ir::TransitionSystem& slm = problem.side(Side::kSlm);
    const ir::TransitionSystem& rtl = problem.side(Side::kRtl);
    auto outIndex = [](const ir::TransitionSystem& ts, const std::string& n) {
      for (std::size_t i = 0; i < ts.outputs().size(); ++i)
        if (ts.outputs()[i].name == n) return i;
      DFV_UNREACHABLE("output vanished");
    };
    const auto si = outIndex(slm, cex.check.slmOutput);
    const auto ri = outIndex(rtl, cex.check.rtlOutput);
    cex.slmValue = slmSteps[cex.check.slmCycle].outputs[si].scalar;
    cex.rtlValue = rtlSteps[cex.check.rtlCycle].outputs[ri].scalar;
    DFV_CHECK_MSG(cex.slmValue != cex.rtlValue,
                  "SEC engine bug: counterexample did not replay — "
                      << cex.summary());
  }
}

}  // namespace

SecResult checkEquivalence(const SecProblem& problem,
                           const SecOptions& options) {
  DFV_CHECK_MSG(!problem.checks().empty(), "SEC problem has no output checks");
  // Reject malformed budgets at both phase entry points (negative caps used
  // to flip between "already exhausted" and "unlimited" depending on path).
  options.bmcBudget.validate();
  options.inductionBudget.validate();
  // The BMC loop is also where the reset-state base case is checked and
  // constraints are tested for vacuity, so induction alone proves nothing.
  DFV_CHECK_MSG(options.boundTransactions > 0,
                "boundTransactions must be at least 1");
  const auto startTime = std::chrono::steady_clock::now();

  SecResult result;
  // One frame cache for the check, shared by the BMC and induction miters:
  // induction is one more copy of the transition relation BMC unrolled.
  std::optional<aig::FrameCache> frames;
  if (options.fraig)
    frames.emplace(options.fraigOptions);
  aig::FrameCache* cache = frames ? &*frames : nullptr;
  aig::Aig g;
  Miter miter(g, cache);

  const ir::TransitionSystem* slmTs = &problem.side(Side::kSlm);
  const ir::TransitionSystem* rtlTs = &problem.side(Side::kRtl);

  // Structural slicing first: property-preserving w.r.t. the checked
  // outputs, coupling invariants and constraints, and sound from an
  // arbitrary start state, so BMC and the induction step both unroll the
  // sliced systems.  The slices keep every input, state and output
  // declared, so unrolling, aliasing and counterexample extraction index
  // them exactly like the originals.
  std::optional<ir::TransitionSystem> slmSliced, rtlSliced;
  if (options.slice) {
    const auto t0 = std::chrono::steady_clock::now();
    slice::Roots slmRoots, rtlRoots;
    for (const OutputCheck& chk : problem.checks()) {
      slmRoots.outputs.push_back(chk.slmOutput);
      rtlRoots.outputs.push_back(chk.rtlOutput);
    }
    // Coupling invariants are roots on both sides: each one constrains the
    // induction start states, so every state it reads must stay live.
    for (ir::NodeRef inv : problem.couplingInvariants()) {
      slmRoots.extra.push_back(inv);
      rtlRoots.extra.push_back(inv);
    }
    SliceStats& st = result.stats.slice;
    slmSliced = slice::sliceTransitionSystem(*slmTs, slmRoots,
                                             options.sliceOptions, &st.slm);
    rtlSliced = slice::sliceTransitionSystem(*rtlTs, rtlRoots,
                                             options.sliceOptions, &st.rtl);
    slmTs = &*slmSliced;
    rtlTs = &*rtlSliced;
    st.applied = true;
    st.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // Certified-invariant strengthening (SecOptions::invariants): mine and
  // Houdini-certify per-state predicates on the systems both phases unroll
  // (sliced-or-original).  A certified predicate holds at reset, in every
  // reachable state, and is closed under one free-input transition of its
  // side, so it is sound to assume at the symbolic induction start and
  // entailed (free) at every BMC transaction boundary.  Certification
  // solves charge options.inductionBudget as a shared pool: the induction
  // solve below runs under the drained remainder, so capped runs stay
  // machine-independent facts.
  std::vector<ir::NodeRef> slmCertified, rtlCertified;
  sat::Budget inductionBudget = options.inductionBudget;
  if (options.invariants && options.tryInduction) {
    InvStats& is = result.stats.inv;
    is.applied = true;
    auto runSide = [&](const ir::TransitionSystem& ts,
                       std::vector<ir::NodeRef>& out) {
      const inv::Result r =
          inv::mineAndCertify(ts, options.invOptions, inductionBudget);
      out = r.certified;
      is.candidates += r.stats.candidates;
      is.certified += r.stats.certified;
      is.rounds += r.stats.rounds;
      is.dropped += r.stats.dropped;
      is.certConflicts += r.stats.certConflicts;
      is.certPropagations += r.stats.certPropagations;
      is.certSeconds += r.stats.certSeconds;
      result.stats.absint.seconds += r.stats.absintSeconds;
      is.budgetExhausted = is.budgetExhausted || r.stats.budgetExhausted;
      inductionBudget =
          drainBudget(inductionBudget, r.stats.certConflicts,
                      r.stats.certPropagations, r.stats.certSeconds);
    };
    runSide(*slmTs, slmCertified);
    runSide(*rtlTs, rtlCertified);
  }

  Unroller slm(problem, Side::kSlm, *slmTs, g);
  Unroller rtl(problem, Side::kRtl, *rtlTs, g);
  slm.initFromReset();
  rtl.initFromReset();

  std::vector<std::vector<aig::Word>> txnVarWords;  // [txn][var]

  auto finishStats = [&] {
    SecStats& st = result.stats;
    // Both graphs count: the induction step builds a second AIG (gi below)
    // whose size st.inductionAigNodes carries by then.
    st.bmcAigNodes = g.numNodes();
    st.aigNodes = st.bmcAigNodes + st.inductionAigNodes;
    miter.foldInto(st);
    // The fraig totals are the sums of the phase entries.
    auto addPhase = [&st](const PhaseStats& p) {
      st.fraigMergedNodes += p.fraigMergedNodes;
      st.fraigSatCalls += p.fraigSatCalls;
      st.fraigMemoHits += p.fraigMemoHits;
      st.fraigTimeMs += p.fraigTimeMs;
    };
    for (const PhaseStats& p : st.bmcTransactions) addPhase(p);
    addPhase(st.induction);
    st.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - startTime)
                     .count();
  };

  // ----- BMC over transactions from reset --------------------------------
  for (unsigned t = 0; t < options.boundTransactions; ++t) {
    // Fault-injection site: one hit per BMC transaction.  kThrow models an
    // engine crash mid-run; the solver-shaped policies behave exactly like a
    // budget that expired before this transaction's first solve, so the
    // verdict is the honest kInconclusive either way.
    switch (fault::onSiteHit(fault::Site::kSecBmcPhase)) {
      case fault::Policy::kThrowCheckError:
        fault::throwInjected(fault::Site::kSecBmcPhase);
      case fault::Policy::kSpuriousUnknown:
      case fault::Policy::kExhaustBudget: {
        PhaseStats cut;
        cut.budgetExhausted = true;
        result.stats.bmcTransactions.push_back(cut);
        result.verdict = Verdict::kInconclusive;
        finishStats();
        return result;
      }
      default:
        break;
    }
    // Fresh transaction variables for this transaction.
    std::vector<aig::Word> vars;
    {
      aig::BitBlaster frame(g);
      for (ir::NodeRef v : problem.txnVars())
        vars.push_back(frame.freshWord(
            v->width(), v->name() + "@t" + std::to_string(t)));
    }
    txnVarWords.push_back(vars);
    // Constraints on this transaction's variables are hard clauses.
    {
      aig::BitBlaster frame(g);
      for (std::size_t i = 0; i < problem.txnVars().size(); ++i)
        frame.bindScalar(problem.txnVars()[i], vars[i]);
      for (ir::NodeRef c : problem.constraints())
        miter.assertTrue(frame.blast(c)[0]);
    }
    PhaseStats phase;
    // Vacuity guard (transaction 0 only — constraints repeat): an
    // unsatisfiable constraint set would make every check pass trivially,
    // the formal counterpart of a testbench that generates no stimulus.
    if (t == 0 && !problem.constraints().empty()) {
      const sat::Result vr =
          miter.solve(aig::kTrue, options.bmcBudget, phase);
      if (vr == sat::Result::kUnknown) {
        result.stats.bmcTransactions.push_back(phase);
        result.verdict = Verdict::kInconclusive;
        finishStats();
        return result;
      }
      DFV_CHECK_MSG(vr == sat::Result::kSat,
                    "SEC constraints are unsatisfiable: every property "
                    "would hold vacuously (over-constrained input space)");
    }

    // Certified invariants hold in every reachable state and the unrolling
    // visits only reachable states, so asserting them at each transaction
    // boundary is free strengthening (at t=0 they fold to constant true
    // over the reset words).  A constant-false assertion would make every
    // check pass vacuously — that can only mean a certifier soundness bug,
    // so it is rejected loudly instead.
    if (!slmCertified.empty() || !rtlCertified.empty()) {
      aig::BitBlaster frame(g);
      slm.bindStateLeaves(frame);
      rtl.bindStateLeaves(frame);
      auto assertFact = [&](ir::NodeRef p) {
        const aig::Lit l = frame.blast(p)[0];
        if (l == aig::kTrue) return;
        DFV_CHECK_MSG(l != aig::kFalse,
                      "certified invariant is false on the BMC unrolling "
                      "(certifier soundness bug)");
        miter.assertTrue(l);
      };
      for (ir::NodeRef p : slmCertified) assertFact(p);
      for (ir::NodeRef p : rtlCertified) assertFact(p);
    }

    slm.runTransaction(t, vars);
    rtl.runTransaction(t, vars);

    // Any-output-differs literal for this transaction.
    aig::Lit anyDiff = aig::kFalse;
    std::vector<aig::Lit> checkDiffs;
    aig::BitBlaster frame(g);
    for (const OutputCheck& chk : problem.checks()) {
      const aig::Word& so = slm.outputAt(chk.slmOutput, chk.slmCycle);
      const aig::Word& ro = rtl.outputAt(chk.rtlOutput, chk.rtlCycle);
      const aig::Lit diff = aig::negate(frame.eqGate(so, ro));
      checkDiffs.push_back(diff);
      anyDiff = g.makeOr(anyDiff, diff);
    }
    result.stats.transactionsChecked = t + 1;

    const sat::Result br = miter.solve(anyDiff, options.bmcBudget, phase);
    result.stats.bmcTransactions.push_back(phase);
    if (br == sat::Result::kUnknown) {
      // Budget expired with neither equivalence nor a counterexample at
      // this depth: the only honest verdict.
      result.verdict = Verdict::kInconclusive;
      finishStats();
      return result;
    }
    if (br == sat::Result::kSat) {
      // Counterexample: identify which check fired, extract, replay.
      Counterexample cex;
      cex.failingTransaction = t;
      // Identify which check fired.  The per-check diff literals may have no
      // model variable of their own (polarity-aware encoding only clausifies
      // what a root needs, and fraiging can reroute the solved cone around
      // them), so evaluate the unrolling graph under the extracted input
      // assignment — inputs always map, and ones outside the solved cone are
      // unconstrained, so their default is consistent with the model.
      {
        std::map<std::uint32_t, bool> inputVals;
        for (const std::uint32_t in : g.inputs())
          inputVals[in] = miter.modelOf(in << 1, false);
        const std::vector<bool> nodeVals = g.evaluate(inputVals);
        for (std::size_t c = 0; c < problem.checks().size(); ++c) {
          if (aig::Aig::litValue(nodeVals, checkDiffs[c])) {
            cex.check = problem.checks()[c];
            break;
          }
        }
      }
      for (unsigned tt = 0; tt <= t; ++tt) {
        std::vector<bv::BitVector> vals;
        for (const auto& w : txnVarWords[tt])
          vals.push_back(extractWord(miter, w));
        cex.txnVarValues.push_back(std::move(vals));
      }
      cex.slmInputs = extractSideInputs(problem, Side::kSlm, slm, miter,
                                        cex.txnVarValues, t + 1);
      cex.rtlInputs = extractSideInputs(problem, Side::kRtl, rtl, miter,
                                        cex.txnVarValues, t + 1);
      replayCounterexample(problem, cex);
      result.verdict = Verdict::kNotEquivalent;
      result.cex = std::move(cex);
      finishStats();
      return result;
    }
    // Outputs proven equal at this depth: assert it to help deeper frames.
    miter.assertTrue(aig::negate(anyDiff));
    if (t == 0 && options.boundTransactions > 1) {
      // One transaction's frame is now in the graph: pre-size the node
      // vectors and the strash table for the whole unrolling so they stop
      // rehash-growing (bench_sec_ablation measures the bucket counts).
      g.reserve(g.numNodes() * options.boundTransactions);
    }
  }

  result.verdict = Verdict::kBoundedEquivalent;

  // ----- inductive step ----------------------------------------------------
  if (options.tryInduction) {
    result.stats.inductionAttempted = true;
    // Fault-injection site: the induction phase boundary.  The bounded
    // verdict is already sound on its own, so an injected cutoff — like a
    // real one — only forgoes the upgrade to proven.
    switch (fault::onSiteHit(fault::Site::kSecInductionPhase)) {
      case fault::Policy::kThrowCheckError:
        fault::throwInjected(fault::Site::kSecInductionPhase);
      case fault::Policy::kSpuriousUnknown:
      case fault::Policy::kExhaustBudget:
        result.stats.induction.budgetExhausted = true;
        result.stats.inductionClosed = false;
        finishStats();
        return result;
      default:
        break;
    }
    bool closed = true;
    // Base: reset states must satisfy every coupling invariant.
    {
      ir::Env env;
      for (const auto& sv : problem.side(Side::kSlm).states())
        env.emplace(sv.current, sv.init);
      for (const auto& sv : problem.side(Side::kRtl).states())
        env.emplace(sv.current, sv.init);
      for (ir::NodeRef inv : problem.couplingInvariants()) {
        if (ir::Evaluator::evaluate(inv, env).scalar.isZero()) closed = false;
      }
    }
    if (closed) {
      aig::Aig gi;
      Miter miterI(gi, cache);
      // The same systems BMC unrolled.  Sliced ones are sound here: severed
      // state is outside every checked cone on any trace, and sequential
      // constants are inductive invariants, proven wherever the step's
      // conclusion is applied.
      Unroller slmI(problem, Side::kSlm, *slmTs, gi);
      Unroller rtlI(problem, Side::kRtl, *rtlTs, gi);
      slmI.initSymbolic("ind.");
      // Invariants of the form eq(slm-state, rtl-state) are applied
      // *structurally*: the RTL leaf reuses the SLM leaf's symbolic words,
      // so logic that is identical on both sides collapses in the AIG
      // instead of being re-proven clause by clause (this is the internal-
      // equivalence-point optimization real SEC tools rely on).  All other
      // invariant shapes are assumed via CNF.
      std::unordered_map<ir::NodeRef, SymVal> aliases;
      std::vector<ir::NodeRef> cnfInvariants;
      {
        const auto slmSnap = slmI.stateBindingSnapshot();
        const ir::TransitionSystem& slmTs = problem.side(Side::kSlm);
        const ir::TransitionSystem& rtlTs = problem.side(Side::kRtl);
        auto isStateOf = [](const ir::TransitionSystem& ts, ir::NodeRef n) {
          if (n->op() != ir::Op::kState) return false;
          return ts.findState(n->name()) != nullptr &&
                 ts.findState(n->name())->current == n;
        };
        for (ir::NodeRef inv : problem.couplingInvariants()) {
          if (options.structuralAliasing && inv->op() == ir::Op::kEq) {
            ir::NodeRef a = inv->operand(0);
            ir::NodeRef b = inv->operand(1);
            if (isStateOf(slmTs, a) && isStateOf(rtlTs, b) &&
                aliases.count(b) == 0) {
              aliases.emplace(b, slmSnap.at(a));
              continue;
            }
            if (isStateOf(slmTs, b) && isStateOf(rtlTs, a) &&
                aliases.count(a) == 0) {
              aliases.emplace(a, slmSnap.at(b));
              continue;
            }
          }
          cnfInvariants.push_back(inv);
        }
      }
      rtlI.initSymbolic("ind.", &aliases);
      // Assume the remaining invariants at transaction start.
      {
        aig::BitBlaster frame(gi);
        slmI.bindStateLeaves(frame);
        rtlI.bindStateLeaves(frame);
        for (ir::NodeRef inv : cnfInvariants)
          miterI.assertTrue(frame.blast(inv)[0]);
        // Certified invariants join the hypothesis: assumed at the symbolic
        // start, never added to the violation disjunction below — they are
        // already-proven facts of every reachable state (each carries its
        // own Houdini SAT certificate), not proof obligations of this step.
        auto assumeCertified = [&](ir::NodeRef p) {
          const aig::Lit l = frame.blast(p)[0];
          if (l == aig::kTrue) return;
          DFV_CHECK_MSG(l != aig::kFalse,
                        "certified invariant is constant false at the "
                        "symbolic induction start (certifier soundness bug)");
          miterI.assertTrue(l);
        };
        for (ir::NodeRef p : slmCertified) assumeCertified(p);
        for (ir::NodeRef p : rtlCertified) assumeCertified(p);
      }
      // One symbolic transaction.
      std::vector<aig::Word> vars;
      {
        aig::BitBlaster frame(gi);
        for (ir::NodeRef v : problem.txnVars())
          vars.push_back(frame.freshWord(v->width(), "ind." + v->name()));
        for (std::size_t i = 0; i < problem.txnVars().size(); ++i)
          frame.bindScalar(problem.txnVars()[i], vars[i]);
        for (ir::NodeRef c : problem.constraints())
          miterI.assertTrue(frame.blast(c)[0]);
      }
      slmI.runTransaction(0, vars);
      rtlI.runTransaction(0, vars);
      // Violation: any output differs OR any invariant broken at the end.
      aig::Lit violation = aig::kFalse;
      {
        aig::BitBlaster frame(gi);
        for (const OutputCheck& chk : problem.checks()) {
          const aig::Word& so = slmI.outputAt(chk.slmOutput, chk.slmCycle);
          const aig::Word& ro = rtlI.outputAt(chk.rtlOutput, chk.rtlCycle);
          violation = gi.makeOr(violation,
                                aig::negate(frame.eqGate(so, ro)));
        }
      }
      {
        aig::BitBlaster frame(gi);
        slmI.bindStateLeaves(frame);
        rtlI.bindStateLeaves(frame);
        for (ir::NodeRef inv : problem.couplingInvariants())
          violation =
              gi.makeOr(violation, aig::negate(frame.blast(inv)[0]));
      }
      const sat::Result ir = miterI.solve(violation, inductionBudget,
                                          result.stats.induction);
      // kUnknown leaves `closed` false: the bounded verdict is sound on its
      // own, so an induction cutoff only forgoes the upgrade to proven.
      closed = ir == sat::Result::kUnsat;
      result.stats.inductionAigNodes = gi.numNodes();
      miterI.foldInto(result.stats);
    }
    result.stats.inductionClosed = closed;
    if (closed) result.verdict = Verdict::kProvenEquivalent;
  }

  finishStats();
  return result;
}

}  // namespace dfv::sec
