// Tests for dfv::inv, the Houdini-style invariant certification pass.
// The core property is adversarial soundness: certification must keep ONLY
// predicates that truly hold on every reachable state, no matter what a
// caller (or a buggy analyzer) feeds it — cross-checked here against
// exhaustive reachability enumeration at small width.

#include "inv/inv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "designs/wrapcnt.h"
#include "ir/eval.h"
#include "ir/print.h"

namespace dfv::inv {
namespace {

using bv::BitVector;

/// A 4-bit tick counter wrapping at kMax: reachable states are exactly
/// {0..kMax}, small enough to enumerate everything.
constexpr unsigned kW = 4;
constexpr unsigned kMax = 5;

ir::TransitionSystem makeSmallWrap(ir::Context& ctx) {
  ir::TransitionSystem ts(ctx, "smallwrap");
  ir::NodeRef tick = ts.addInput("tick", 1);
  ir::NodeRef cnt = ts.addState("cnt", kW, 0);
  ir::NodeRef step = ctx.mux(ctx.ule(ctx.constantUint(kW, kMax), cnt),
                             ctx.zero(kW), ctx.add(cnt, ctx.one(kW)));
  ts.setNext(cnt, ctx.mux(tick, step, cnt));
  ts.addOutput("count", cnt);
  return ts;
}

/// Exhaustive forward reachability from reset over all input values.
std::set<std::uint64_t> reachableStates(const ir::TransitionSystem& ts) {
  const auto& sv = ts.states().at(0);
  ir::NodeRef tick = ts.inputs().at(0);
  std::set<std::uint64_t> seen{sv.init.scalar.toUint64()};
  std::vector<std::uint64_t> work(seen.begin(), seen.end());
  while (!work.empty()) {
    const std::uint64_t s = work.back();
    work.pop_back();
    for (std::uint64_t in = 0; in < 2; ++in) {
      ir::Env env;
      env.emplace(sv.current, BitVector::fromUint(kW, s));
      env.emplace(tick, BitVector::fromUint(1, in));
      const std::uint64_t nxt =
          ir::Evaluator::evaluate(sv.next, env).scalar.toUint64();
      if (seen.insert(nxt).second) work.push_back(nxt);
    }
  }
  return seen;
}

bool holdsOnState(ir::NodeRef pred, ir::NodeRef stateLeaf, unsigned w,
                  std::uint64_t value) {
  ir::Env env;
  env.emplace(stateLeaf, BitVector::fromUint(w, value));
  return !ir::Evaluator::evaluate(pred, env).scalar.isZero();
}

TEST(InvCertify, AdversarialCandidatesMatchExhaustiveReachability) {
  // Feed EVERY predicate of the forms ule(cnt,c), ule(c,cnt), eq(cnt,c)
  // as untrusted extras (mining off) and cross-check the survivors against
  // brute-force reachability: certified => true on all reachable states.
  ir::Context ctx;
  ir::TransitionSystem ts = makeSmallWrap(ctx);
  const auto& sv = ts.states().at(0);

  Options opts;
  opts.mineAbsint = false;
  opts.mineTernary = false;
  opts.maxCandidates = 1000;
  for (std::uint64_t c = 0; c < (1u << kW); ++c) {
    ir::NodeRef cc = ctx.constantUint(kW, c);
    opts.extraCandidates.push_back(ctx.ule(sv.current, cc));
    opts.extraCandidates.push_back(ctx.ule(cc, sv.current));
    opts.extraCandidates.push_back(ctx.eq(sv.current, cc));
  }
  const Result r = mineAndCertify(ts, opts);
  EXPECT_FALSE(r.stats.budgetExhausted);
  EXPECT_EQ(r.stats.candidates, r.stats.certified + r.stats.dropped);
  EXPECT_GT(r.stats.rounds, 0u);

  const std::set<std::uint64_t> reach = reachableStates(ts);
  EXPECT_EQ(reach, (std::set<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  // Soundness: every certified predicate holds on every reachable state.
  for (ir::NodeRef p : r.certified)
    for (std::uint64_t s : reach)
      EXPECT_TRUE(holdsOnState(p, sv.current, kW, s))
          << ir::printExpr(p) << " certified but false on state " << s;
  // The intended facts survive: cnt <= kMax (tight) and every looser bound.
  for (std::uint64_t c = kMax; c < (1u << kW); ++c)
    EXPECT_NE(std::find(r.certified.begin(), r.certified.end(),
                        ctx.ule(sv.current, ctx.constantUint(kW, c))),
              r.certified.end())
        << "ule(cnt, " << c << ") should certify";
  // Unsound shapes are gone: eq(cnt, c) is not inductive for any c (the
  // counter moves), and ule(c, cnt) fails at reset for every c > 0 —
  // only the vacuous ule(0, cnt) may survive with a constant lhs.
  for (ir::NodeRef p : r.certified) {
    EXPECT_NE(p->op(), ir::Op::kEq);
    if (p->op() == ir::Op::kULe && p->operands()[0]->op() == ir::Op::kConst) {
      EXPECT_TRUE(p->operands()[0]->constValue().isZero())
          << ir::printExpr(p) << " lower bound should fail at reset";
    }
  }
  EXPECT_GE(r.stats.certified, (1u << kW) - kMax);
}

TEST(InvCertify, MiningFindsAndCertifiesTheWrapBound) {
  // On the real wrapcnt SLM the absint fixpoint converges to [0, 10], and
  // the mined ule(cnt, 10) + known-bits facts all certify.
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  const Result r = mineAndCertify(ts, {});
  EXPECT_FALSE(r.stats.budgetExhausted);
  EXPECT_GT(r.stats.certified, 0u);
  const auto& sv = ts.states().at(0);
  ir::NodeRef bound =
      ctx.ule(sv.current, ctx.constantUint(designs::kWrapcntWidth,
                                           designs::kWrapcntMax));
  EXPECT_NE(std::find(r.certified.begin(), r.certified.end(), bound),
            r.certified.end())
      << "absint mining should surface and certify cnt <= 10";
  for (ir::NodeRef p : r.certified)
    for (std::uint64_t s = 0; s <= designs::kWrapcntMax; ++s)
      EXPECT_TRUE(holdsOnState(p, sv.current, designs::kWrapcntWidth, s))
          << ir::printExpr(p);
}

TEST(InvCertify, DeterministicAcrossRuns) {
  // Equal (system, options) must produce bit-identical certified sets and
  // counters; certSeconds is the sole wall-clock telemetry field.
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  const Result a = mineAndCertify(ts, {});
  const Result b = mineAndCertify(ts, {});
  EXPECT_EQ(a.certified, b.certified);  // hash-consed NodeRefs: same nodes
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.certified, b.stats.certified);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.certConflicts, b.stats.certConflicts);
  EXPECT_EQ(a.stats.certPropagations, b.stats.certPropagations);
  EXPECT_EQ(a.stats.certDecisions, b.stats.certDecisions);
}

TEST(InvCertify, BudgetExhaustionReturnsEmptyNeverPartial) {
  // A pool too small to finish must return NOTHING: a partially-checked
  // Houdini set is not a certificate.  The caller degrades to the
  // uncertified path — a sound bounded verdict, never a wrong one.
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  sat::Budget tiny;
  tiny.maxPropagations = 1;
  const Result r = mineAndCertify(ts, {}, tiny);
  EXPECT_TRUE(r.stats.budgetExhausted);
  EXPECT_TRUE(r.certified.empty());
  EXPECT_EQ(r.stats.certified, 0u);
  EXPECT_GT(r.stats.candidates, 0u);  // mining itself is budget-free
}

TEST(InvCertify, CandidateCapTruncatesDeterministically) {
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  Options opts;
  opts.maxCandidates = 1;
  const Result full = mineAndCertify(ts, {});
  const Result capped = mineAndCertify(ts, opts);
  EXPECT_EQ(capped.stats.candidates, full.stats.candidates);
  EXPECT_LE(capped.stats.certified, 1u);
  EXPECT_EQ(capped.stats.candidates,
            capped.stats.certified + capped.stats.dropped);
}

TEST(InvCertify, MalformedExtraCandidatesThrow) {
  ir::Context ctx;
  ir::TransitionSystem ts = makeSmallWrap(ctx);
  const auto& sv = ts.states().at(0);
  {
    Options o;
    o.extraCandidates.push_back(sv.current);  // kW-bit, not a predicate
    EXPECT_THROW(mineAndCertify(ts, o), CheckError);
  }
  {
    Options o;  // references an input leaf, not state-only
    o.extraCandidates.push_back(ctx.eq(ts.inputs().at(0), ctx.one(1)));
    EXPECT_THROW(mineAndCertify(ts, o), CheckError);
  }
  {
    Options o;
    o.extraCandidates.push_back(nullptr);
    EXPECT_THROW(mineAndCertify(ts, o), CheckError);
  }
}

}  // namespace
}  // namespace dfv::inv
