#include "slice/slice.h"

#include <chrono>

namespace dfv::slice {

namespace {

using ir::Node;
using ir::NodeRef;
using ir::Op;

/// Depth-first node visit counting unique non-leaf nodes and collecting the
/// leaves seen; state leaves are reported to `onState` so callers can close
/// the cone over next-state functions.
class ConeWalker {
 public:
  void visit(NodeRef root) {
    if (root == nullptr) return;
    stack_.push_back(root);
    while (!stack_.empty()) {
      NodeRef n = stack_.back();
      stack_.pop_back();
      if (!visited_.insert(n).second) continue;
      switch (n->op()) {
        case Op::kConst:
          break;
        case Op::kInput:
          inputs.insert(n);
          break;
        case Op::kState:
          states.insert(n);
          break;
        default:
          ++nodes;
          for (NodeRef o : n->operands()) stack_.push_back(o);
          break;
      }
    }
  }

  std::unordered_set<NodeRef> states;
  std::unordered_set<NodeRef> inputs;
  std::uint64_t nodes = 0;

 private:
  std::unordered_set<NodeRef> visited_;
  std::vector<NodeRef> stack_;
};

/// Memoized rebuild of an expression with state leaves substituted.  When
/// `subst` is empty this returns the original nodes unchanged (hash-consing
/// makes the rebuild a no-op), so a slice with no sequential constants
/// shares every live expression with its source.
class Substituter {
 public:
  Substituter(ir::Context& ctx,
              const std::unordered_map<NodeRef, NodeRef>& subst)
      : ctx_(ctx), subst_(subst) {}

  NodeRef rewrite(NodeRef n) {
    if (n == nullptr) return nullptr;
    if (subst_.empty()) return n;
    auto it = memo_.find(n);
    if (it != memo_.end()) return it->second;
    NodeRef out = rebuild(n);
    memo_.emplace(n, out);
    return out;
  }

 private:
  NodeRef rebuild(NodeRef n) {
    switch (n->op()) {
      case Op::kConst:
      case Op::kInput:
        return n;
      case Op::kState: {
        auto it = subst_.find(n);
        return it != subst_.end() ? it->second : n;
      }
      default:
        break;
    }
    std::vector<NodeRef> ops;
    ops.reserve(n->operands().size());
    bool changed = false;
    for (NodeRef o : n->operands()) {
      NodeRef r = rewrite(o);
      changed |= (r != o);
      ops.push_back(r);
    }
    if (!changed) return n;
    switch (n->op()) {
      case Op::kAdd: return ctx_.add(ops[0], ops[1]);
      case Op::kSub: return ctx_.sub(ops[0], ops[1]);
      case Op::kMul: return ctx_.mul(ops[0], ops[1]);
      case Op::kUDiv: return ctx_.udiv(ops[0], ops[1]);
      case Op::kURem: return ctx_.urem(ops[0], ops[1]);
      case Op::kSDiv: return ctx_.sdiv(ops[0], ops[1]);
      case Op::kSRem: return ctx_.srem(ops[0], ops[1]);
      case Op::kNeg: return ctx_.neg(ops[0]);
      case Op::kAnd: return ctx_.bitAnd(ops[0], ops[1]);
      case Op::kOr: return ctx_.bitOr(ops[0], ops[1]);
      case Op::kXor: return ctx_.bitXor(ops[0], ops[1]);
      case Op::kNot: return ctx_.bitNot(ops[0]);
      case Op::kShl: return ctx_.shl(ops[0], ops[1]);
      case Op::kLShr: return ctx_.lshr(ops[0], ops[1]);
      case Op::kAShr: return ctx_.ashr(ops[0], ops[1]);
      case Op::kEq: return ctx_.eq(ops[0], ops[1]);
      case Op::kNe: return ctx_.ne(ops[0], ops[1]);
      case Op::kULt: return ctx_.ult(ops[0], ops[1]);
      case Op::kULe: return ctx_.ule(ops[0], ops[1]);
      case Op::kSLt: return ctx_.slt(ops[0], ops[1]);
      case Op::kSLe: return ctx_.sle(ops[0], ops[1]);
      case Op::kMux: return ctx_.mux(ops[0], ops[1], ops[2]);
      case Op::kConcat: return ctx_.concat(ops[0], ops[1]);
      case Op::kExtract:
        return ctx_.extract(ops[0], n->attr0(), n->attr1());
      case Op::kZExt: return ctx_.zext(ops[0], n->attr0());
      case Op::kSExt: return ctx_.sext(ops[0], n->attr0());
      case Op::kRedAnd: return ctx_.redAnd(ops[0]);
      case Op::kRedOr: return ctx_.redOr(ops[0]);
      case Op::kRedXor: return ctx_.redXor(ops[0]);
      case Op::kArrayRead: return ctx_.arrayRead(ops[0], ops[1]);
      case Op::kArrayWrite:
        return ctx_.arrayWrite(ops[0], ops[1], ops[2]);
      default:
        DFV_UNREACHABLE("slice rewriter: unhandled op "
                        << ir::opName(n->op()));
    }
  }

  ir::Context& ctx_;
  const std::unordered_map<NodeRef, NodeRef>& subst_;
  std::unordered_map<NodeRef, NodeRef> memo_;
};

/// Root expressions of a slice: the named (or all) outputs with their valid
/// qualifiers, extra roots, and optionally the constraints.
std::vector<NodeRef> rootExprs(const ir::TransitionSystem& ts,
                               const Roots& roots) {
  std::vector<NodeRef> out;
  std::unordered_set<std::string> wanted(roots.outputs.begin(),
                                         roots.outputs.end());
  for (const auto& o : ts.outputs()) {
    if (!roots.allOutputs() && wanted.count(o.name) == 0) continue;
    out.push_back(o.expr);
    if (o.valid != nullptr) out.push_back(o.valid);
  }
  for (NodeRef e : roots.extra) out.push_back(e);
  if (roots.includeConstraints)
    for (NodeRef c : ts.constraints()) out.push_back(c);
  return out;
}

/// Closes a root set over next-state dependencies: a state leaf in the cone
/// pulls its (possibly rewritten) next-state expression in too.  Leaves
/// that are not states of `ts` (the other side of a miter, transaction
/// variables) are recorded as plain inputs-of-the-expression but never
/// expanded.
Cone closeCone(const ir::TransitionSystem& ts,
               const std::vector<NodeRef>& rootList,
               const std::unordered_map<NodeRef, NodeRef>& nextOf) {
  ConeWalker walker;
  for (NodeRef r : rootList) walker.visit(r);
  // Iterate: visiting a next-state expression can expose new state leaves.
  std::unordered_set<NodeRef> expanded;
  bool grew = true;
  while (grew) {
    grew = false;
    for (NodeRef s : std::vector<NodeRef>(walker.states.begin(),
                                          walker.states.end())) {
      if (!expanded.insert(s).second) continue;
      auto it = nextOf.find(s);
      if (it == nextOf.end()) continue;  // foreign leaf: not a state of ts
      walker.visit(it->second);
      grew = true;
    }
  }
  Cone cone;
  // Only keep leaves that actually belong to ts.
  for (NodeRef s : walker.states)
    if (nextOf.count(s) != 0) cone.states.insert(s);
  std::unordered_set<NodeRef> tsInputs(ts.inputs().begin(), ts.inputs().end());
  for (NodeRef i : walker.inputs)
    if (tsInputs.count(i) != 0) cone.inputs.insert(i);
  cone.nodes = walker.nodes;
  return cone;
}

std::unordered_map<NodeRef, NodeRef> nextMap(const ir::TransitionSystem& ts) {
  std::unordered_map<NodeRef, NodeRef> nextOf;
  for (const auto& sv : ts.states()) nextOf.emplace(sv.current, sv.next);
  return nextOf;
}

}  // namespace

Cone coneOfInfluence(const ir::TransitionSystem& ts, const Roots& roots) {
  return closeCone(ts, rootExprs(ts, roots), nextMap(ts));
}

std::uint64_t coneNodeCount(const ir::TransitionSystem& ts) {
  ConeWalker walker;
  for (const auto& sv : ts.states()) walker.visit(sv.next);
  for (const auto& o : ts.outputs()) {
    walker.visit(o.expr);
    walker.visit(o.valid);
  }
  for (NodeRef c : ts.constraints()) walker.visit(c);
  return walker.nodes;
}

SeqConstResult sequentialConstants(const ir::TransitionSystem& ts) {
  SeqConstResult result;
  // Greatest fixpoint: start from "every latch is stuck at reset" and
  // demote until stable.  Demoted latches and inputs read as X via the
  // evaluator's unbound-leaf rule.
  std::vector<const ir::StateVar*> candidates;
  for (const auto& sv : ts.states())
    if (sv.next != nullptr) candidates.push_back(&sv);

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    TernaryEnv env;
    for (const auto* sv : candidates)
      env.emplace(sv->current, TernaryValue::known(sv->init));
    TernaryEvaluator eval(env);
    std::vector<const ir::StateVar*> kept;
    kept.reserve(candidates.size());
    for (const auto* sv : candidates) {
      const TernaryValue& next = eval.eval(sv->next);
      if (next.fullyKnown() && next.concrete() == sv->init)
        kept.push_back(sv);
      else
        changed = true;
    }
    candidates = std::move(kept);
  }
  for (const auto* sv : candidates)
    result.constants.emplace(sv->current, sv->init);
  return result;
}

SeqTernaryResult sequentialTernary(const ir::TransitionSystem& ts) {
  SeqTernaryResult result;
  // Same greatest fixpoint as sequentialConstants, per bit: start every
  // scalar latch fully known at reset and demote individual bits until
  // stable.  Inputs, array states and fully-demoted latches read as X via
  // the evaluator's unbound-leaf rule.
  std::vector<const ir::StateVar*> candidates;
  std::unordered_map<ir::NodeRef, Ternary> pattern;
  for (const auto& sv : ts.states()) {
    if (sv.next == nullptr || sv.init.isArray) continue;
    candidates.push_back(&sv);
    pattern.emplace(sv.current, Ternary::known(sv.init.scalar));
  }

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    TernaryEnv env;
    for (const auto* sv : candidates) {
      const Ternary& p = pattern.at(sv->current);
      if (!p.noneKnown()) env.emplace(sv->current, TernaryValue(p));
    }
    TernaryEvaluator eval(env);
    for (const auto* sv : candidates) {
      Ternary& p = pattern.at(sv->current);
      if (p.noneKnown()) continue;
      const TernaryValue& next = eval.eval(sv->next);
      DFV_CHECK(!next.isArray);
      // Keep exactly the bits whose next value is known-equal to reset.
      const bv::BitVector agree =
          p.mask() & next.scalar.mask() &
          ~(next.scalar.value() ^ sv->init.scalar);
      if (agree != p.mask()) {
        p = Ternary::make(sv->init.scalar, agree);
        changed = true;
      }
    }
  }
  for (const auto* sv : candidates) {
    const Ternary& p = pattern.at(sv->current);
    if (!p.noneKnown()) result.masks.emplace(sv->current, p);
  }
  return result;
}

ir::TransitionSystem sliceTransitionSystem(const ir::TransitionSystem& ts,
                                           const Roots& roots,
                                           const Options& opts,
                                           Stats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  Stats local;
  local.nodesBefore = coneNodeCount(ts);
  ir::Context& ctx = ts.ctx();

  // Pass 1: sequential constants, substituted into every rebuilt
  // expression.  Scalars only — there is no array-constant node to
  // substitute, so a constant array state is left to the COI pass.
  std::unordered_map<NodeRef, NodeRef> subst;
  if (opts.seqConst) {
    const SeqConstResult sc = sequentialConstants(ts);
    for (const auto& [leaf, value] : sc.constants) {
      if (value.isArray) continue;
      subst.emplace(leaf, ctx.constant(value.scalar));
    }
    local.seqConstants = subst.size();
  }
  Substituter rw(ctx, subst);

  // Pass 2: cone of influence over the *rewritten* graph, so logic that
  // the substituted constants fold away does not keep states alive.
  std::vector<NodeRef> rootList;
  for (NodeRef r : rootExprs(ts, roots)) rootList.push_back(rw.rewrite(r));
  std::unordered_map<NodeRef, NodeRef> rewrittenNext;
  for (const auto& sv : ts.states())
    rewrittenNext.emplace(sv.current, rw.rewrite(sv.next));
  Cone cone = closeCone(ts, rootList, rewrittenNext);

  // Rebuild, preserving the full interface.
  ir::TransitionSystem out(ctx, ts.name());
  for (NodeRef in : ts.inputs()) out.addInput(in->name(), in->type());
  std::unordered_set<std::string> liveOutputs(roots.outputs.begin(),
                                              roots.outputs.end());
  for (const auto& sv : ts.states()) {
    NodeRef leaf = out.addState(sv.name(), sv.current->type(), sv.init);
    DFV_CHECK_MSG(leaf == sv.current, "slice must reuse the state leaf");
    auto cit = subst.find(leaf);
    if (cit != subst.end()) {
      // Stuck at reset: the constant is its own (exact) next state.
      out.setNext(leaf, cit->second);
    } else if (opts.coi && cone.states.count(leaf) == 0) {
      // Outside every root cone: hold the (never observed) value.
      out.setNext(leaf, leaf);
      ++local.statesSevered;
    } else {
      out.setNext(leaf, rewrittenNext.at(leaf));
    }
  }
  for (const auto& o : ts.outputs()) {
    const bool live = roots.allOutputs() || liveOutputs.count(o.name) != 0;
    if (live || !opts.coi || o.expr->type().isArray()) {
      out.addOutput(o.name, rw.rewrite(o.expr), rw.rewrite(o.valid));
    } else {
      // Dead scalar output: constant-zero stub of the same width keeps the
      // port (and any by-name lookup) present at zero cost.
      out.addOutput(o.name, ctx.constant(bv::BitVector(o.expr->width())),
                    nullptr);
    }
  }
  for (NodeRef c : ts.constraints()) out.addConstraint(rw.rewrite(c));

  local.nodesAfter = coneNodeCount(out);
  local.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  if (stats != nullptr) *stats += local;
  return out;
}

}  // namespace dfv::slice
