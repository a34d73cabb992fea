// Tests for the word-level IR: hash-consing, folding, evaluation, and
// transition-system simulation.

#include <gtest/gtest.h>

#include <random>

#include "ir/eval.h"
#include "ir/expr.h"
#include "ir/transition_system.h"

namespace dfv::ir {
namespace {

using bv::BitVector;

TEST(IrContext, HashConsingSharesStructurallyEqualNodes) {
  Context ctx;
  NodeRef a = ctx.input("a", 8);
  NodeRef b = ctx.input("b", 8);
  EXPECT_EQ(ctx.add(a, b), ctx.add(a, b));
  EXPECT_EQ(ctx.add(a, b), ctx.add(b, a));  // commutative canonicalization
  EXPECT_NE(ctx.add(a, b), ctx.sub(a, b));
  EXPECT_EQ(ctx.input("a", 8), a);
  EXPECT_THROW(ctx.input("a", 9), CheckError);
}

TEST(IrContext, ConstantFolding) {
  Context ctx;
  NodeRef c5 = ctx.constantUint(8, 5);
  NodeRef c3 = ctx.constantUint(8, 3);
  EXPECT_EQ(ctx.add(c5, c3), ctx.constantUint(8, 8));
  EXPECT_EQ(ctx.mul(c5, c3), ctx.constantUint(8, 15));
  EXPECT_EQ(ctx.ult(c3, c5), ctx.boolConst(true));
  EXPECT_EQ(ctx.concat(c5, c3), ctx.constantUint(16, 0x0503));
  EXPECT_EQ(ctx.extract(ctx.constantUint(16, 0xabcd), 15, 8),
            ctx.constantUint(8, 0xab));
  EXPECT_EQ(ctx.sext(ctx.constantUint(8, 0x80), 16),
            ctx.constantUint(16, 0xff80));
}

TEST(IrContext, IdentitySimplifications) {
  Context ctx;
  NodeRef a = ctx.input("a", 8);
  NodeRef z = ctx.zero(8);
  EXPECT_EQ(ctx.add(a, z), a);
  EXPECT_EQ(ctx.sub(a, z), a);
  EXPECT_EQ(ctx.sub(a, a), z);
  EXPECT_EQ(ctx.bitXor(a, a), z);
  EXPECT_EQ(ctx.bitAnd(a, z), z);
  EXPECT_EQ(ctx.bitOr(a, z), a);
  EXPECT_EQ(ctx.mul(a, ctx.one(8)), a);
  EXPECT_EQ(ctx.mux(ctx.boolConst(true), a, z), a);
  EXPECT_EQ(ctx.mux(ctx.boolConst(false), a, z), z);
  EXPECT_EQ(ctx.mux(ctx.input("s", 1), a, a), a);
  EXPECT_EQ(ctx.extract(a, 7, 0), a);
  EXPECT_EQ(ctx.eq(a, a), ctx.boolConst(true));
  EXPECT_EQ(ctx.ult(a, a), ctx.boolConst(false));
}

TEST(IrContext, ExtractOfExtractComposes) {
  Context ctx;
  NodeRef a = ctx.input("a", 32);
  NodeRef inner = ctx.extract(a, 23, 8);   // 16 bits
  NodeRef outer = ctx.extract(inner, 11, 4);
  EXPECT_EQ(outer, ctx.extract(a, 19, 12));
}

TEST(IrContext, SortChecking) {
  Context ctx;
  NodeRef a = ctx.input("a", 8);
  NodeRef b = ctx.input("b", 9);
  EXPECT_THROW(ctx.add(a, b), CheckError);
  EXPECT_THROW(ctx.mux(a, a, a), CheckError);  // selector not 1 bit
  EXPECT_THROW(ctx.extract(a, 8, 0), CheckError);
  EXPECT_THROW(ctx.zext(a, 4), CheckError);
  NodeRef mem = ctx.state("mem", Type{8, 16});
  EXPECT_THROW(ctx.add(mem, mem), CheckError);
  EXPECT_THROW(ctx.arrayRead(a, a), CheckError);
  EXPECT_THROW(ctx.arrayRead(mem, ctx.input("idx8", 8)), CheckError);
  NodeRef idx = ctx.input("idx", 4);
  EXPECT_EQ(ctx.arrayRead(mem, idx)->width(), 8u);
}

TEST(IrEval, ScalarExpression) {
  Context ctx;
  NodeRef a = ctx.input("a", 8);
  NodeRef b = ctx.input("b", 8);
  NodeRef e = ctx.mul(ctx.add(a, b), ctx.sub(a, b));  // (a+b)*(a-b)
  Env env{{a, Value(BitVector::fromUint(8, 10))},
          {b, Value(BitVector::fromUint(8, 3))}};
  EXPECT_EQ(Evaluator::evaluate(e, env).scalar.toUint64(), (13u * 7u) & 0xff);
}

TEST(IrEval, UnboundLeafThrows) {
  Context ctx;
  NodeRef a = ctx.input("a", 8);
  Env env;
  EXPECT_THROW(Evaluator::evaluate(a, env), CheckError);
}

TEST(IrEval, ArrayReadWrite) {
  Context ctx;
  NodeRef mem = ctx.state("m", Type{16, 8});
  NodeRef idx = ctx.input("i", 3);
  NodeRef val = ctx.input("v", 16);
  NodeRef written = ctx.arrayWrite(mem, idx, val);
  NodeRef readBack = ctx.arrayRead(written, idx);
  NodeRef readOther = ctx.arrayRead(written, ctx.constantUint(3, 0));

  Env env;
  std::vector<BitVector> contents;
  for (unsigned i = 0; i < 8; ++i)
    contents.push_back(BitVector::fromUint(16, 100 + i));
  env.emplace(mem, Value::makeArray(contents));
  env.emplace(idx, Value(BitVector::fromUint(3, 5)));
  env.emplace(val, Value(BitVector::fromUint(16, 9999)));

  Evaluator ev(env);
  EXPECT_EQ(ev.eval(readBack).scalar.toUint64(), 9999u);
  EXPECT_EQ(ev.eval(readOther).scalar.toUint64(), 100u);
}

TEST(IrEval, MemoizationEvaluatesSharedNodesOnce) {
  // Build a deep diamond; without memoization this would be 2^40 work.
  Context ctx;
  NodeRef x = ctx.input("x", 32);
  NodeRef e = x;
  for (int i = 0; i < 40; ++i) e = ctx.add(e, e);
  Env env{{x, Value(BitVector::fromUint(32, 1))}};
  // 2^40 mod 2^32 = 0? No: doubling 40 times = x * 2^40, truncated to 32 bits.
  EXPECT_EQ(Evaluator::evaluate(e, env).scalar.toUint64(), 0u);
  Env env2{{x, Value(BitVector::fromUint(32, 3))}};
  EXPECT_EQ(Evaluator::evaluate(e, env2).scalar.toUint64(),
            (3ull << 40) & 0xffffffffull);
}

TEST(IrEval, HundredThousandDeepChainDoesNotRecurse) {
  // The evaluator compiles cones iteratively, so depth is bounded by memory,
  // not by the call stack.
  Context ctx;
  NodeRef x = ctx.input("x", 32);
  NodeRef e = x;
  for (int i = 0; i < 100000; ++i) e = ctx.add(e, x);
  Env env{{x, Value(BitVector::fromUint(32, 3))}};
  EXPECT_EQ(Evaluator::evaluate(e, env).scalar.toUint64(), 3u * 100001u);
}

TEST(TransitionSystem, CounterWithEnable) {
  Context ctx;
  TransitionSystem ts(ctx, "counter");
  NodeRef en = ts.addInput("en", 1);
  NodeRef cnt = ts.addState("cnt", 8, 0);
  ts.setNext(cnt, ctx.mux(en, ctx.add(cnt, ctx.one(8)), cnt));
  ts.addOutput("count", cnt);

  TsSimulator sim(ts);
  auto hi = Value(BitVector::fromUint(1, 1));
  auto lo = Value(BitVector::fromUint(1, 0));
  EXPECT_EQ(sim.step({hi}).outputs[0].scalar.toUint64(), 0u);
  EXPECT_EQ(sim.step({hi}).outputs[0].scalar.toUint64(), 1u);
  EXPECT_EQ(sim.step({lo}).outputs[0].scalar.toUint64(), 2u);
  EXPECT_EQ(sim.step({hi}).outputs[0].scalar.toUint64(), 2u);
  EXPECT_EQ(sim.step({hi}).outputs[0].scalar.toUint64(), 3u);
}

TEST(TransitionSystem, ValidateCatchesMissingNext) {
  Context ctx;
  TransitionSystem ts(ctx);
  ts.addState("s", 4, 0);
  EXPECT_THROW(ts.validate(), CheckError);
}

TEST(TransitionSystem, SimultaneousUpdateSwapsRegisters) {
  // Classic swap: a <= b; b <= a.  Sequential semantics would converge.
  Context ctx;
  TransitionSystem ts(ctx, "swap");
  NodeRef a = ts.addState("a", 8, 1);
  NodeRef b = ts.addState("b", 8, 2);
  ts.setNext(a, b);
  ts.setNext(b, a);
  ts.addOutput("a", a);
  ts.addOutput("b", b);

  TsSimulator sim(ts);
  auto r1 = sim.step({});
  EXPECT_EQ(r1.outputs[0].scalar.toUint64(), 1u);
  EXPECT_EQ(r1.outputs[1].scalar.toUint64(), 2u);
  auto r2 = sim.step({});
  EXPECT_EQ(r2.outputs[0].scalar.toUint64(), 2u);
  EXPECT_EQ(r2.outputs[1].scalar.toUint64(), 1u);
  auto r3 = sim.step({});
  EXPECT_EQ(r3.outputs[0].scalar.toUint64(), 1u);
  EXPECT_EQ(r3.outputs[1].scalar.toUint64(), 2u);
}

TEST(TransitionSystem, MemoryStateVariable) {
  // A tiny synchronous-write memory with registered read address: the
  // paper's §3.2 example of RTL memory with one-cycle read latency.
  Context ctx;
  TransitionSystem ts(ctx, "mem1r1w");
  NodeRef wen = ts.addInput("wen", 1);
  NodeRef waddr = ts.addInput("waddr", 3);
  NodeRef wdata = ts.addInput("wdata", 16);
  NodeRef raddr = ts.addInput("raddr", 3);
  NodeRef mem = ts.addState("mem", Type{16, 8},
                            Value::filledArray(16, 8, BitVector(16)));
  NodeRef raddrReg = ts.addState("raddr_q", 3, 0);
  ts.setNext(mem, ctx.mux(wen, ctx.arrayWrite(mem, waddr, wdata), mem));
  ts.setNext(raddrReg, raddr);
  ts.addOutput("rdata", ctx.arrayRead(mem, raddrReg));

  TsSimulator sim(ts);
  auto u = [](unsigned w, std::uint64_t v) {
    return Value(BitVector::fromUint(w, v));
  };
  // Cycle 0: write 0xbeef to addr 5, present read addr 5.
  sim.step({u(1, 1), u(3, 5), u(16, 0xbeef), u(3, 5)});
  // Cycle 1: read data appears (registered address, write landed).
  auto r = sim.step({u(1, 0), u(3, 0), u(16, 0), u(3, 0)});
  EXPECT_EQ(r.outputs[0].scalar.toUint64(), 0xbeefu);
}

TEST(TransitionSystem, ConstraintsReported) {
  Context ctx;
  TransitionSystem ts(ctx, "constrained");
  NodeRef x = ts.addInput("x", 8);
  ts.addConstraint(ctx.ult(x, ctx.constantUint(8, 10)));
  ts.addOutput("y", x);
  TsSimulator sim(ts);
  EXPECT_TRUE(sim.step({Value(BitVector::fromUint(8, 5))}).constraintsHeld);
  EXPECT_FALSE(sim.step({Value(BitVector::fromUint(8, 50))}).constraintsHeld);
}

TEST(TransitionSystem, OutputValidQualifier) {
  Context ctx;
  TransitionSystem ts(ctx, "qualified");
  NodeRef v = ts.addInput("v", 1);
  NodeRef d = ts.addInput("d", 8);
  ts.addOutput("out", d, v);
  TsSimulator sim(ts);
  auto r1 = sim.step({Value(BitVector::fromUint(1, 1)),
                      Value(BitVector::fromUint(8, 7))});
  EXPECT_TRUE(r1.outputValid[0]);
  auto r2 = sim.step({Value(BitVector::fromUint(1, 0)),
                      Value(BitVector::fromUint(8, 7))});
  EXPECT_FALSE(r2.outputValid[0]);
}

// Property: evaluator agrees with BitVector on randomly-built expression
// trees (differential test of the fold rules against direct evaluation).
class IrFoldProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(IrFoldProperty, FoldedConstantsMatchDirectEvaluation) {
  const unsigned width = GetParam();
  std::mt19937_64 rng(0x1234 + width);
  Context ctx;
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t xa = rng(), xb = rng();
    const BitVector va = BitVector::fromUint(width, xa);
    const BitVector vb = BitVector::fromUint(width, xb);
    NodeRef ca = ctx.constant(va);
    NodeRef cb = ctx.constant(vb);
    // Build the same expression two ways: fully-constant (folds at build
    // time) and with inputs (folds at eval time); results must agree.
    NodeRef ia = ctx.input("pa" + std::to_string(width), width);
    NodeRef ib = ctx.input("pb" + std::to_string(width), width);
    Env env{{ia, Value(va)}, {ib, Value(vb)}};
    struct Case { NodeRef folded; NodeRef symbolic; };
    const Case cases[] = {
        {ctx.add(ca, cb), ctx.add(ia, ib)},
        {ctx.sub(ca, cb), ctx.sub(ia, ib)},
        {ctx.mul(ca, cb), ctx.mul(ia, ib)},
        {ctx.bitAnd(ca, cb), ctx.bitAnd(ia, ib)},
        {ctx.udiv(ca, cb), ctx.udiv(ia, ib)},
        {ctx.srem(ca, cb), ctx.srem(ia, ib)},
        {ctx.ashr(ca, cb), ctx.ashr(ia, ib)},
        {ctx.slt(ca, cb), ctx.slt(ia, ib)},
        {ctx.redXor(ca), ctx.redXor(ia)},
    };
    for (const auto& c : cases) {
      ASSERT_EQ(c.folded->op(), Op::kConst);
      EXPECT_EQ(c.folded->constValue(),
                Evaluator::evaluate(c.symbolic, env).scalar);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IrFoldProperty,
                         ::testing::Values(1u, 7u, 8u, 16u, 33u, 64u));

}  // namespace
}  // namespace dfv::ir
