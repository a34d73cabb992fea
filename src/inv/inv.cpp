#include "inv/inv.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "aig/bitblast.h"
#include "aig/cnf.h"
#include "slice/slice.h"

namespace dfv::inv {

namespace {

void collectLeaves(ir::NodeRef root, std::unordered_set<ir::NodeRef>& visited,
                   std::unordered_set<ir::NodeRef>& leaves) {
  if (root == nullptr || !visited.insert(root).second) return;
  if (root->op() == ir::Op::kInput || root->op() == ir::Op::kState) {
    leaves.insert(root);
    return;
  }
  for (ir::NodeRef o : root->operands()) collectLeaves(o, visited, leaves);
}

/// One budget pool shared by every certification solve: each solve runs
/// under the pool's remainder, and spent cost is charged back via
/// solver-stat deltas.
struct Pool {
  sat::Budget base;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  double seconds = 0.0;

  bool exhausted() const {
    if (base.maxConflicts > 0 &&
        conflicts >= static_cast<std::uint64_t>(base.maxConflicts))
      return true;
    if (base.maxPropagations > 0 &&
        propagations >= static_cast<std::uint64_t>(base.maxPropagations))
      return true;
    if (base.maxSeconds > 0 && seconds >= base.maxSeconds) return true;
    return false;
  }

  /// Only meaningful when !exhausted(): every finite cap is positive.
  sat::Budget remaining() const {
    sat::Budget b = base;
    if (b.maxConflicts > 0)
      b.maxConflicts -= static_cast<std::int64_t>(conflicts);
    if (b.maxPropagations > 0)
      b.maxPropagations -= static_cast<std::int64_t>(propagations);
    if (b.maxSeconds > 0) b.maxSeconds -= seconds;
    return b;
  }
};

}  // namespace

Result mineAndCertify(const ir::TransitionSystem& ts, const Options& opts,
                      const sat::Budget& budget) {
  ts.validate();
  budget.validate();
  Result result;
  Stats& st = result.stats;
  ir::Context& ctx = ts.ctx();

  // ----- mining: deterministic order, hash-consed dedup ---------------------
  std::vector<ir::NodeRef> cands;
  std::unordered_set<ir::NodeRef> uniq;
  auto addCand = [&](ir::NodeRef p) {
    if (uniq.insert(p).second) cands.push_back(p);
  };
  if (opts.mineAbsint) {
    const auto t0 = std::chrono::steady_clock::now();
    const absint::Analysis a = absint::Analysis::run(ts, opts.absintOptions);
    st.absintSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (ir::NodeRef p : a.statePredicates(ts)) addCand(p);
  }
  if (opts.mineTernary) {
    const slice::SeqTernaryResult tern = slice::sequentialTernary(ts);
    for (const auto& sv : ts.states()) {
      const auto it = tern.masks.find(sv.current);
      if (it == tern.masks.end()) continue;
      const slice::Ternary& p = it->second;
      if (p.fullyKnown())
        addCand(ctx.eq(sv.current, ctx.constant(p.value())));
      else
        addCand(ctx.eq(ctx.bitAnd(sv.current, ctx.constant(p.mask())),
                       ctx.constant(p.value())));
    }
  }
  if (!opts.extraCandidates.empty()) {
    std::unordered_set<ir::NodeRef> stateLeaves;
    for (const auto& sv : ts.states()) stateLeaves.insert(sv.current);
    for (ir::NodeRef p : opts.extraCandidates) {
      DFV_CHECK_MSG(
          p != nullptr && !p->type().isArray() && p->type().width == 1,
          "extra invariant candidates must be 1-bit scalar predicates");
      std::unordered_set<ir::NodeRef> visited, leaves;
      collectLeaves(p, visited, leaves);
      for (ir::NodeRef leaf : leaves)
        DFV_CHECK_MSG(stateLeaves.count(leaf) != 0,
                      "invariant candidates may reference only the system's "
                      "own state leaves");
      addCand(p);
    }
  }
  st.candidates = cands.size();
  if (cands.size() > opts.maxCandidates) {
    st.dropped += cands.size() - opts.maxCandidates;
    cands.resize(opts.maxCandidates);
  }
  if (cands.empty()) return result;

  // ----- reset check: init |= C_i, evaluated concretely ---------------------
  {
    ir::Env init;
    for (const auto& sv : ts.states()) init.emplace(sv.current, sv.init);
    ir::Evaluator ev(init);
    std::vector<ir::NodeRef> kept;
    kept.reserve(cands.size());
    for (ir::NodeRef p : cands) {
      if (ev.eval(p).scalar.isZero())
        ++st.dropped;
      else
        kept.push_back(p);
    }
    cands = std::move(kept);
  }
  if (cands.empty()) return result;

  // ----- encode one free-input step: s --T--> s' ----------------------------
  // Constraints are not asserted (over-approximating the transition relation
  // keeps every certificate valid for the constrained system), and inputs
  // are fresh unconstrained words.
  aig::Aig g;
  aig::BitBlaster cur(g);
  for (ir::NodeRef in : ts.inputs()) {
    const ir::Type t = in->type();
    if (t.isArray()) {
      aig::ArrayWord a;
      for (unsigned e = 0; e < t.depth; ++e)
        a.elems.push_back(
            cur.freshWord(t.width, "inv.in." + in->name() + "." +
                                       std::to_string(e)));
      cur.bindArray(in, std::move(a));
    } else {
      cur.bindScalar(in, cur.freshWord(t.width, "inv.in." + in->name()));
    }
  }
  for (const auto& sv : ts.states()) {
    const ir::Type t = sv.current->type();
    if (t.isArray()) {
      aig::ArrayWord a;
      for (unsigned e = 0; e < t.depth; ++e)
        a.elems.push_back(cur.freshWord(
            t.width, "inv.cur." + sv.name() + "." + std::to_string(e)));
      cur.bindArray(sv.current, std::move(a));
    } else {
      cur.bindScalar(sv.current, cur.freshWord(t.width, "inv.cur." + sv.name()));
    }
  }
  aig::BitBlaster nxt(g);
  for (const auto& sv : ts.states()) {
    if (sv.current->type().isArray())
      nxt.bindArray(sv.current, cur.blastArray(sv.next));
    else
      nxt.bindScalar(sv.current, cur.blast(sv.next));
  }
  std::vector<aig::Lit> litCur, litNext;
  litCur.reserve(cands.size());
  litNext.reserve(cands.size());
  for (ir::NodeRef p : cands) {
    litCur.push_back(cur.blast(p)[0]);
    litNext.push_back(nxt.blast(p)[0]);
  }

  // ----- Houdini drop loop --------------------------------------------------
  // One incremental solver; each query asks "/\ active C_j(s), T(s, s'),
  // NOT C_i(s')" — SAT means C_i is not inductive relative to the current
  // set and is dropped; a drop weakens the hypothesis, so the pass repeats
  // until a full round survives.
  sat::Solver solver;
  aig::CnfEncoder enc(g, solver);
  Pool pool{budget};
  std::vector<bool> active(cands.size(), true);
  const auto bail = [&]() -> Result& {
    // A partially-checked set is not a certificate: return nothing.
    st.budgetExhausted = true;
    result.certified.clear();
    st.certified = 0;
    st.certSeconds = pool.seconds;
    return result;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    ++st.rounds;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!active[i]) continue;
      if (pool.exhausted()) return bail();
      std::vector<sat::Lit> assumptions;
      for (std::size_t j = 0; j < cands.size(); ++j)
        if (active[j]) assumptions.push_back(enc.satLit(litCur[j]));
      assumptions.push_back(enc.satLit(aig::negate(litNext[i])));
      const sat::SolverStats before = solver.stats();
      const auto t0 = std::chrono::steady_clock::now();
      const sat::Result r = solver.solve(assumptions, pool.remaining());
      const auto t1 = std::chrono::steady_clock::now();
      const sat::SolverStats after = solver.stats();
      pool.conflicts += after.conflicts - before.conflicts;
      pool.propagations += after.propagations - before.propagations;
      pool.seconds += std::chrono::duration<double>(t1 - t0).count();
      st.certConflicts += after.conflicts - before.conflicts;
      st.certPropagations += after.propagations - before.propagations;
      st.certDecisions += after.decisions - before.decisions;
      if (r == sat::Result::kUnknown) return bail();
      if (r == sat::Result::kSat) {
        active[i] = false;
        ++st.dropped;
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (active[i]) result.certified.push_back(cands[i]);
  st.certified = result.certified.size();
  st.certSeconds = pool.seconds;
  return result;
}

}  // namespace dfv::inv
