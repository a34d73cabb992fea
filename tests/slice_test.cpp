// dfv::slice tests.
//
// The load-bearing part is the exhaustive differential sweep: for every IR
// op, every small-width ternary input pattern, and every concrete
// assignment consistent with that pattern, the concrete ir::Evaluator
// result must be admitted by the ternary result (and equal it when the
// ternary result is fully known).  This pins the fifth interpreter to the
// executable semantics the other four already agree on, including the
// totalized udiv/urem-by-zero and out-of-range array cases.

#include <gtest/gtest.h>

#include "designs/histo.h"
#include "sec/engine.h"
#include "slice/slice.h"
#include "slice/ternary.h"

namespace dfv {
namespace {

using bv::BitVector;
using slice::Ternary;
using slice::TernaryEnv;
using slice::TernaryEvaluator;
using slice::TernaryValue;

// ---------------------------------------------------------------------------
// Ternary value basics.
// ---------------------------------------------------------------------------

TEST(Ternary, ConstructionAndAccessors) {
  const Ternary x = Ternary::allX(4);
  EXPECT_EQ(x.width(), 4u);
  EXPECT_FALSE(x.fullyKnown());
  EXPECT_TRUE(x.noneKnown());

  const Ternary k = Ternary::known(BitVector::fromUint(4, 0b1010));
  EXPECT_TRUE(k.fullyKnown());
  EXPECT_TRUE(k.bitValue(1));
  EXPECT_FALSE(k.bitValue(0));
  EXPECT_EQ(k.toString(), "1010");

  // make() canonicalizes X bits of the value to zero.
  const Ternary m = Ternary::make(BitVector::fromUint(3, 0b111),
                                  BitVector::fromUint(3, 0b101));
  EXPECT_EQ(m.toString(), "1X1");
  EXPECT_TRUE(m.value().bit(0));
  EXPECT_FALSE(m.value().bit(1));  // canonical: X carries value 0
}

TEST(Ternary, AdmitsExactlyTheConsistentValues) {
  // Pattern 1X0: admits 100 and 110, nothing else.
  const Ternary t = Ternary::make(BitVector::fromUint(3, 0b100),
                                  BitVector::fromUint(3, 0b101));
  unsigned admitted = 0;
  for (std::uint64_t v = 0; v < 8; ++v)
    admitted += t.admits(BitVector::fromUint(3, v)) ? 1 : 0;
  EXPECT_EQ(admitted, 2u);
  EXPECT_TRUE(t.admits(BitVector::fromUint(3, 0b100)));
  EXPECT_TRUE(t.admits(BitVector::fromUint(3, 0b110)));
}

TEST(Ternary, MergeIsLeastUpperBound) {
  const Ternary a = Ternary::known(BitVector::fromUint(3, 0b101));
  const Ternary b = Ternary::known(BitVector::fromUint(3, 0b100));
  const Ternary m = Ternary::merge(a, b);
  EXPECT_EQ(m.toString(), "10X");
  for (std::uint64_t v = 0; v < 8; ++v) {
    const BitVector bv = BitVector::fromUint(3, v);
    if (a.admits(bv) || b.admits(bv)) {
      EXPECT_TRUE(m.admits(bv));
    }
  }
}

// ---------------------------------------------------------------------------
// Exhaustive differential sweep: ternary vs concrete evaluator.
// ---------------------------------------------------------------------------

// Every ternary pattern of width w (3^w of them).
std::vector<Ternary> allPatterns(unsigned w) {
  std::vector<Ternary> out;
  unsigned total = 1;
  for (unsigned i = 0; i < w; ++i) total *= 3;
  for (unsigned code = 0; code < total; ++code) {
    BitVector val(w), known(w);
    unsigned c = code;
    for (unsigned i = 0; i < w; ++i) {
      const unsigned digit = c % 3;  // 0, 1, X
      c /= 3;
      if (digit < 2) {
        known.setBit(i, true);
        val.setBit(i, digit == 1);
      }
    }
    out.push_back(Ternary::make(val, known));
  }
  return out;
}

// Every concrete value a ternary pattern admits (2^|X| of them).
std::vector<BitVector> concretizations(const Ternary& t) {
  std::vector<unsigned> xBits;
  for (unsigned i = 0; i < t.width(); ++i)
    if (!t.isKnown(i)) xBits.push_back(i);
  std::vector<BitVector> out;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << xBits.size()); ++m) {
    BitVector v = t.value();
    for (std::size_t j = 0; j < xBits.size(); ++j)
      v.setBit(xBits[j], (m >> j) & 1);
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<ir::Value> concretizations(const TernaryValue& t) {
  if (!t.isArray) {
    std::vector<ir::Value> out;
    for (BitVector& v : concretizations(t.scalar))
      out.emplace_back(std::move(v));
    return out;
  }
  std::vector<std::vector<BitVector>> acc{{}};
  for (const Ternary& e : t.array) {
    std::vector<std::vector<BitVector>> next;
    for (const auto& prefix : acc)
      for (const BitVector& v : concretizations(e)) {
        auto row = prefix;
        row.push_back(v);
        next.push_back(std::move(row));
      }
    acc = std::move(next);
  }
  std::vector<ir::Value> out;
  for (auto& elems : acc) out.push_back(ir::Value::makeArray(elems));
  return out;
}

// For one ternary assignment to the leaves: evaluate ternarily, then check
// every consistent concrete assignment concretizes the ternary result.
void checkAssignment(ir::NodeRef expr,
                     const std::vector<ir::NodeRef>& leaves,
                     const std::vector<const TernaryValue*>& assignment) {
  TernaryEnv tenv;
  for (std::size_t i = 0; i < leaves.size(); ++i)
    tenv.emplace(leaves[i], *assignment[i]);
  const TernaryValue tern = TernaryEvaluator::evaluate(expr, tenv);

  std::vector<std::vector<ir::Value>> choices;
  for (const TernaryValue* t : assignment)
    choices.push_back(concretizations(*t));
  std::vector<std::size_t> idx(leaves.size(), 0);
  while (true) {
    ir::Env env;
    for (std::size_t i = 0; i < leaves.size(); ++i)
      env.emplace(leaves[i], choices[i][idx[i]]);
    const ir::Value concrete = ir::Evaluator::evaluate(expr, env);
    ASSERT_TRUE(tern.admits(concrete))
        << "ternary result does not admit a reachable concrete value";
    if (tern.fullyKnown()) {
      ASSERT_TRUE(tern.concrete() == concrete);
    }
    // Advance the mixed-radix counter.
    std::size_t d = 0;
    while (d < idx.size() && ++idx[d] == choices[d].size()) idx[d++] = 0;
    if (d == idx.size()) break;
  }
}

// Sweeps every combination of the given per-leaf pattern sets.
void sweep(ir::NodeRef expr, const std::vector<ir::NodeRef>& leaves,
           const std::vector<std::vector<TernaryValue>>& patterns) {
  ASSERT_EQ(leaves.size(), patterns.size());
  std::vector<std::size_t> idx(leaves.size(), 0);
  std::vector<const TernaryValue*> assignment(leaves.size());
  while (true) {
    for (std::size_t i = 0; i < leaves.size(); ++i)
      assignment[i] = &patterns[i][idx[i]];
    checkAssignment(expr, leaves, assignment);
    if (::testing::Test::HasFatalFailure()) return;
    std::size_t d = 0;
    while (d < idx.size() && ++idx[d] == patterns[d].size()) idx[d++] = 0;
    if (d == idx.size()) break;
  }
}

std::vector<TernaryValue> scalarPatterns(unsigned w) {
  std::vector<TernaryValue> out;
  for (Ternary& t : allPatterns(w)) out.emplace_back(std::move(t));
  return out;
}

TEST(TernarySweep, BinaryArithAndBitwiseOps) {
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 3);
  ir::NodeRef b = ctx.input("b", 3);
  const auto pats = scalarPatterns(3);
  const std::vector<ir::NodeRef> exprs = {
      ctx.add(a, b),    ctx.sub(a, b),    ctx.mul(a, b),
      ctx.udiv(a, b),   ctx.urem(a, b),   ctx.sdiv(a, b),
      ctx.srem(a, b),   ctx.bitAnd(a, b), ctx.bitOr(a, b),
      ctx.bitXor(a, b), ctx.shl(a, b),    ctx.lshr(a, b),
      ctx.ashr(a, b),   ctx.concat(a, b),
  };
  for (ir::NodeRef e : exprs) {
    sweep(e, {a, b}, {pats, pats});
    if (::testing::Test::HasFatalFailure())
      FAIL() << "in op " << ir::opName(e->op());
  }
}

TEST(TernarySweep, ComparisonOps) {
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 3);
  ir::NodeRef b = ctx.input("b", 3);
  const auto pats = scalarPatterns(3);
  const std::vector<ir::NodeRef> exprs = {
      ctx.eq(a, b),  ctx.ne(a, b),  ctx.ult(a, b),
      ctx.ule(a, b), ctx.slt(a, b), ctx.sle(a, b),
  };
  for (ir::NodeRef e : exprs) {
    sweep(e, {a, b}, {pats, pats});
    if (::testing::Test::HasFatalFailure())
      FAIL() << "in op " << ir::opName(e->op());
  }
}

TEST(TernarySweep, UnaryOpsExtractExtendReductions) {
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 4);
  const auto pats = scalarPatterns(4);
  const std::vector<ir::NodeRef> exprs = {
      ctx.neg(a),          ctx.bitNot(a),      ctx.extract(a, 2, 1),
      ctx.zext(a, 6),      ctx.sext(a, 6),     ctx.redAnd(a),
      ctx.redOr(a),        ctx.redXor(a),
  };
  for (ir::NodeRef e : exprs) {
    sweep(e, {a}, {pats});
    if (::testing::Test::HasFatalFailure())
      FAIL() << "in op " << ir::opName(e->op());
  }
}

TEST(TernarySweep, MuxMergesArmsUnderUnknownSelector) {
  ir::Context ctx;
  ir::NodeRef s = ctx.input("s", 1);
  ir::NodeRef a = ctx.input("a", 3);
  ir::NodeRef b = ctx.input("b", 3);
  sweep(ctx.mux(s, a, b), {s, a, b},
        {scalarPatterns(1), scalarPatterns(3), scalarPatterns(3)});
}

// Array leaf patterns: depth-3 arrays of 1-bit elements (the 2-bit index
// makes index 3 an exhaustively-reached out-of-range case).
std::vector<TernaryValue> arrayPatterns() {
  const auto elem = allPatterns(1);
  std::vector<TernaryValue> out;
  for (const Ternary& e0 : elem)
    for (const Ternary& e1 : elem)
      for (const Ternary& e2 : elem)
        out.push_back(TernaryValue::makeArray({e0, e1, e2}));
  return out;
}

TEST(TernarySweep, ArrayReadIncludingOutOfRange) {
  ir::Context ctx;
  ir::NodeRef arr = ctx.state("arr", ir::Type{1, 3});
  ir::NodeRef idx = ctx.input("idx", 2);
  sweep(ctx.arrayRead(arr, idx), {arr, idx},
        {arrayPatterns(), scalarPatterns(2)});
}

TEST(TernarySweep, ArrayWriteThenReadIncludingOutOfRange) {
  ir::Context ctx;
  ir::NodeRef arr = ctx.state("arr", ir::Type{1, 3});
  ir::NodeRef idx = ctx.input("idx", 2);
  ir::NodeRef data = ctx.input("data", 1);
  // Read back at every fixed index so an out-of-range *write* (a no-op)
  // and an unknown write index (every element may change) are both hit.
  for (unsigned at = 0; at < 4; ++at) {
    ir::NodeRef e = ctx.arrayRead(ctx.arrayWrite(arr, idx, data),
                                  ctx.constantUint(2, at));
    sweep(e, {arr, idx, data},
          {arrayPatterns(), scalarPatterns(2), scalarPatterns(1)});
    if (::testing::Test::HasFatalFailure()) FAIL() << "at index " << at;
  }
}

TEST(TernaryEvaluatorTest, UnboundLeavesReadAsAllX) {
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 4);
  const TernaryEnv empty;
  const TernaryValue v = TernaryEvaluator::evaluate(a, empty);
  EXPECT_TRUE(v.scalar.noneKnown());
  // ... but known-dominant ops still pin the result.
  const TernaryValue z =
      TernaryEvaluator::evaluate(ctx.bitAnd(a, ctx.zero(4)), empty);
  EXPECT_TRUE(z.scalar.fullyKnown());
  EXPECT_TRUE(z.scalar.value().isZero());
}

// ---------------------------------------------------------------------------
// Cone of influence.
// ---------------------------------------------------------------------------

TEST(ConeOfInfluence, TracksOnlyWhatReachesTheRoots) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "coi");
  ir::NodeRef x = ts.addInput("x", 4);
  ir::NodeRef y = ts.addInput("y", 4);
  ir::NodeRef a = ts.addState("a", 4, 0);   // feeds the output
  ir::NodeRef b = ts.addState("b", 4, 0);   // feeds only c
  ir::NodeRef c = ts.addState("c", 4, 0);   // feeds nothing
  ts.setNext(a, ctx.add(a, x));
  ts.setNext(b, ctx.add(b, y));
  ts.setNext(c, ctx.bitXor(c, b));
  ts.addOutput("out", a);

  const slice::Cone cone = slice::coneOfInfluence(ts, slice::Roots{});
  EXPECT_TRUE(cone.states.count(a));
  EXPECT_FALSE(cone.states.count(b));
  EXPECT_FALSE(cone.states.count(c));
  EXPECT_TRUE(cone.inputs.count(x));
  EXPECT_FALSE(cone.inputs.count(y));
}

TEST(ConeOfInfluence, ExtraRootsAndConstraintsPinTheirCones) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "coi2");
  ir::NodeRef x = ts.addInput("x", 4);
  ir::NodeRef a = ts.addState("a", 4, 0);
  ir::NodeRef b = ts.addState("b", 4, 0);
  ts.setNext(a, ctx.add(a, x));
  ts.setNext(b, ctx.add(b, ctx.one(4)));
  ts.addOutput("out", a);
  // Without the constraint b is dead; with it, live.
  ts.addConstraint(ctx.ult(b, ctx.constantUint(4, 9)));
  EXPECT_TRUE(slice::coneOfInfluence(ts, slice::Roots{}).states.count(b));
  slice::Roots noConstraints;
  noConstraints.includeConstraints = false;
  noConstraints.outputs = {"out"};
  EXPECT_FALSE(
      slice::coneOfInfluence(ts, noConstraints).states.count(b));
  // Extra roots (e.g. coupling invariants) keep their leaves live too, and
  // foreign leaves in them are ignored.
  ir::NodeRef foreign = ctx.state("elsewhere", ir::Type{4, 0});
  slice::Roots extra = noConstraints;
  extra.extra.push_back(ctx.eq(b, foreign));
  const slice::Cone cone = slice::coneOfInfluence(ts, extra);
  EXPECT_TRUE(cone.states.count(b));
  EXPECT_FALSE(cone.states.count(foreign));
}

// ---------------------------------------------------------------------------
// Sequential constants (greatest-fixpoint ternary simulation).
// ---------------------------------------------------------------------------

TEST(SequentialConstants, GatedRegisterChainIsStuckAtReset) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "seq");
  ir::NodeRef in = ts.addInput("in", 4);
  // en can only be cleared and resets clear: stuck at 0.
  ir::NodeRef en = ts.addState("en", 1, 0);
  ts.setNext(en, ctx.bitAnd(en, ctx.redOr(in)));
  // cnt only advances while en: stuck at 0, but only once en is proven.
  ir::NodeRef cnt = ts.addState("cnt", 4, 0);
  ts.setNext(cnt, ctx.mux(en, ctx.add(cnt, ctx.one(4)), cnt));
  // free runs unconditionally: not a constant.
  ir::NodeRef free = ts.addState("free", 4, 0);
  ts.setNext(free, ctx.add(free, ctx.zext(in, 4)));
  ts.addOutput("out", ctx.concat(cnt, free));

  const slice::SeqConstResult sc = slice::sequentialConstants(ts);
  EXPECT_EQ(sc.constants.size(), 2u);
  EXPECT_TRUE(sc.constants.count(en));
  EXPECT_TRUE(sc.constants.count(cnt));
  EXPECT_FALSE(sc.constants.count(free));
}

TEST(SequentialConstants, CascadeCollapsesWhenTheGateIsNotConstant) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "seq2");
  ir::NodeRef arm = ts.addInput("arm", 1);
  // en can be SET by an input: not a constant...
  ir::NodeRef en = ts.addState("en", 1, 0);
  ts.setNext(en, ctx.bitOr(en, arm));
  // ...so the register it gates is not one either, even though it holds
  // its reset value whenever en does.
  ir::NodeRef cnt = ts.addState("cnt", 4, 0);
  ts.setNext(cnt, ctx.mux(en, ctx.add(cnt, ctx.one(4)), cnt));
  ts.addOutput("out", cnt);
  EXPECT_TRUE(slice::sequentialConstants(ts).constants.empty());
}

TEST(SequentialConstants, SaturatingCounterIsNotConstant) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "seq3");
  ir::NodeRef cap = ctx.constantUint(4, 9);
  ir::NodeRef cnt = ts.addState("cnt", 4, 0);
  ts.setNext(cnt, ctx.mux(ctx.eq(cnt, cap), cap, ctx.add(cnt, ctx.one(4))));
  ts.addOutput("out", cnt);
  EXPECT_TRUE(slice::sequentialConstants(ts).constants.empty());
}

TEST(SequentialConstants, RomArrayStateIsConstant) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "seq4");
  ir::NodeRef idx = ts.addInput("idx", 2);
  ir::NodeRef rom = ts.addState(
      "rom", ir::Type{8, 4},
      ir::Value::makeArray({BitVector::fromUint(8, 3), BitVector::fromUint(8, 5),
                            BitVector::fromUint(8, 7), BitVector::fromUint(8, 9)}));
  ts.setNext(rom, rom);
  ts.addOutput("out", ctx.arrayRead(rom, idx));
  const slice::SeqConstResult sc = slice::sequentialConstants(ts);
  EXPECT_TRUE(sc.constants.count(rom));
}

// ---------------------------------------------------------------------------
// sliceTransitionSystem.
// ---------------------------------------------------------------------------

// A system with live logic, a stuck-at register feeding dead logic, and a
// free-running dead accumulator.
ir::TransitionSystem makeSliceable(ir::Context& ctx) {
  ir::TransitionSystem ts(ctx, "sliceable");
  ir::NodeRef x = ts.addInput("x", 4);
  ir::NodeRef acc = ts.addState("acc", 4, 0);
  ts.setNext(acc, ctx.add(acc, x));
  ts.addOutput("sum", acc);
  ir::NodeRef en = ts.addState("en", 1, 0);
  ts.setNext(en, ctx.bitAnd(en, ctx.redOr(x)));
  ir::NodeRef dbg = ts.addState("dbg", 4, 0);
  ts.setNext(dbg, ctx.mux(en, x, dbg));
  ir::NodeRef spin = ts.addState("spin", 4, 7);
  ts.setNext(spin, ctx.add(spin, ctx.one(4)));
  ts.addOutput("debug", ctx.bitXor(dbg, spin));
  return ts;
}

TEST(SliceTransitionSystem, PreservesTheInterfaceAndShrinksTheLogic) {
  ir::Context ctx;
  const ir::TransitionSystem ts = makeSliceable(ctx);
  slice::Roots roots;
  roots.outputs = {"sum"};
  slice::Stats stats;
  const ir::TransitionSystem sliced =
      slice::sliceTransitionSystem(ts, roots, {}, &stats);
  sliced.validate();

  // Interface preserved: same inputs, states and outputs, same leaves.
  ASSERT_EQ(sliced.inputs().size(), ts.inputs().size());
  ASSERT_EQ(sliced.states().size(), ts.states().size());
  ASSERT_EQ(sliced.outputs().size(), ts.outputs().size());
  for (std::size_t i = 0; i < ts.states().size(); ++i)
    EXPECT_EQ(sliced.states()[i].current, ts.states()[i].current);

  // en is a sequential constant; dbg becomes one once en's constant is
  // substituted (mux(0, x, dbg) folds to dbg... which holds its reset).
  // spin is free-running but outside the "sum" cone: severed.
  EXPECT_GE(stats.seqConstants, 1u);
  EXPECT_GE(stats.statesSevered, 1u);
  EXPECT_LT(stats.nodesAfter, stats.nodesBefore);

  // The dead scalar output is stubbed to a constant.
  EXPECT_EQ(sliced.findOutput("debug")->expr->op(), ir::Op::kConst);
  EXPECT_EQ(sliced.findOutput("debug")->expr->width(),
            ts.findOutput("debug")->expr->width());
}

TEST(SliceTransitionSystem, LiveOutputsAgreeOnEveryTraceFromReset) {
  ir::Context ctx;
  const ir::TransitionSystem ts = makeSliceable(ctx);
  slice::Roots roots;
  roots.outputs = {"sum"};
  const ir::TransitionSystem sliced = slice::sliceTransitionSystem(ts, roots);

  ir::TsSimulator ref(ts), cut(sliced);
  std::uint64_t lcg = 12345;  // deterministic stimulus, no global RNG
  for (unsigned step = 0; step < 200; ++step) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::vector<ir::Value> in = {
        ir::Value(BitVector::fromUint(4, (lcg >> 33) & 0xF))};
    const auto a = ref.step(in);
    const auto b = cut.step(in);
    ASSERT_TRUE(a.outputs[0] == b.outputs[0]) << "step " << step;
  }
}

TEST(SliceTransitionSystem, IsDeterministic) {
  ir::Context ctx;
  const ir::TransitionSystem ts = makeSliceable(ctx);
  slice::Roots roots;
  roots.outputs = {"sum"};
  slice::Stats s1, s2;
  const ir::TransitionSystem a = slice::sliceTransitionSystem(ts, roots, {}, &s1);
  const ir::TransitionSystem b = slice::sliceTransitionSystem(ts, roots, {}, &s2);
  EXPECT_EQ(s1.statesSevered, s2.statesSevered);
  EXPECT_EQ(s1.seqConstants, s2.seqConstants);
  EXPECT_EQ(s1.nodesAfter, s2.nodesAfter);
  // Hash-consing makes determinism visible structurally: both slices must
  // be the same nodes.
  for (std::size_t i = 0; i < a.states().size(); ++i)
    EXPECT_EQ(a.states()[i].next, b.states()[i].next);
  for (std::size_t i = 0; i < a.outputs().size(); ++i)
    EXPECT_EQ(a.outputs()[i].expr, b.outputs()[i].expr);
}

TEST(SliceTransitionSystem, CoiAndSeqConstCanBeDisabledIndependently) {
  ir::Context ctx;
  const ir::TransitionSystem ts = makeSliceable(ctx);
  slice::Roots roots;
  roots.outputs = {"sum"};
  slice::Options noCoi;
  noCoi.coi = false;
  slice::Stats s1;
  slice::sliceTransitionSystem(ts, roots, noCoi, &s1);
  EXPECT_EQ(s1.statesSevered, 0u);
  EXPECT_GE(s1.seqConstants, 1u);
  slice::Options noSeq;
  noSeq.seqConst = false;
  slice::Stats s2;
  slice::sliceTransitionSystem(ts, roots, noSeq, &s2);
  EXPECT_EQ(s2.seqConstants, 0u);
  EXPECT_GE(s2.statesSevered, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: histo's RTL debug block through the SEC engine.
// ---------------------------------------------------------------------------

sec::SecResult runHisto(bool sliceOn) {
  ir::Context ctx;
  const designs::HistoSecSetup setup = designs::makeHistoSecProblem(ctx);
  sec::SecOptions o;
  o.boundTransactions = 2;
  o.slice = sliceOn;
  o.bmcBudget.maxConflicts = 1u << 20;
  o.inductionBudget.maxConflicts = 1u << 20;
  return sec::checkEquivalence(*setup.problem, o);
}

TEST(SliceSec, HistoVerdictIdenticalAndInductionGraphShrinks) {
  const sec::SecResult off = runHisto(false);
  const sec::SecResult on = runHisto(true);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.verdict, sec::Verdict::kProvenEquivalent);
  // The debug block is outside every checked cone: the acceptance bar is a
  // >5% induction-graph reduction, the first induction-side reduction in
  // the repo.
  EXPECT_LT(on.stats.inductionAigNodes * 20, off.stats.inductionAigNodes * 19);
  EXPECT_LE(on.stats.bmcAigNodes, off.stats.bmcAigNodes);
  // Telemetry: the capture registers are constants, the free-running
  // accumulator is severed, all on the RTL side only.
  EXPECT_TRUE(on.stats.slice.applied);
  EXPECT_FALSE(off.stats.slice.applied);
  EXPECT_EQ(on.stats.slice.slm.statesSevered, 0u);
  EXPECT_EQ(on.stats.slice.slm.seqConstants, 0u);
  EXPECT_EQ(on.stats.slice.rtl.statesSevered, 1u);
  EXPECT_EQ(on.stats.slice.rtl.seqConstants, 5u);
  EXPECT_LT(on.stats.slice.rtl.nodesAfter, on.stats.slice.rtl.nodesBefore);
}

TEST(SliceSec, RepeatedRunsAreBitIdentical) {
  const sec::SecResult a = runHisto(true);
  const sec::SecResult b = runHisto(true);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.stats.bmcAigNodes, b.stats.bmcAigNodes);
  EXPECT_EQ(a.stats.inductionAigNodes, b.stats.inductionAigNodes);
  EXPECT_EQ(a.stats.satConflicts, b.stats.satConflicts);
}

}  // namespace
}  // namespace dfv
