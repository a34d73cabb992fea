// Tests for dfv::absint: exhaustive domain-operation checks against explicit
// value sets, the whole-analysis soundness sweep (every concretely reachable
// value is a member of the abstract fact, for every IR op — including the
// totalized udiv/urem-by-zero and out-of-range array-read cases), and
// fixpoint precision on the clamp idiom.

#include "absint/analysis.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "absint/domain.h"
#include "ir/eval.h"
#include "ir/print.h"

namespace dfv::absint {
namespace {

using bv::BitVector;

BitVector bvU(unsigned w, std::uint64_t v) {
  return BitVector::fromUint(w, v);
}

// ---------------------------------------------------------------------------
// Domain: exhaustive membership semantics at width 4.
// ---------------------------------------------------------------------------

TEST(AbsintDomain, IntervalContainsExactlyTheRange) {
  const unsigned w = 4;
  for (std::uint64_t lo = 0; lo < 16; ++lo) {
    for (std::uint64_t hi = lo; hi < 16; ++hi) {
      const Fact f = Fact::interval(bvU(w, lo), bvU(w, hi));
      for (std::uint64_t v = 0; v < 16; ++v)
        EXPECT_EQ(f.contains(bvU(w, v)), lo <= v && v <= hi)
            << "[" << lo << "," << hi << "] v=" << v;
    }
  }
}

TEST(AbsintDomain, KnownBitsContainsExactlyTheMatchingValues) {
  const unsigned w = 4;
  for (std::uint64_t z = 0; z < 16; ++z) {
    for (std::uint64_t o = 0; o < 16; ++o) {
      if ((z & o) != 0) continue;  // masks must be disjoint
      const Fact f = Fact::knownBits(bvU(w, z), bvU(w, o));
      for (std::uint64_t v = 0; v < 16; ++v)
        EXPECT_EQ(f.contains(bvU(w, v)), (v & z) == 0 && (v & o) == o)
            << "z=" << z << " o=" << o << " v=" << v;
    }
  }
}

TEST(AbsintDomain, JoinAndMeetRespectSetSemantics) {
  const unsigned w = 4;
  std::vector<Fact> samples;
  for (std::uint64_t lo = 0; lo < 16; lo += 3)
    for (std::uint64_t hi = lo; hi < 16; hi += 2)
      samples.push_back(Fact::interval(bvU(w, lo), bvU(w, hi)));
  for (std::uint64_t z : {0u, 5u, 9u})
    for (std::uint64_t o : {0u, 2u, 6u})
      if ((z & o) == 0) samples.push_back(Fact::knownBits(bvU(w, z), bvU(w, o)));
  for (const Fact& a : samples) {
    for (const Fact& b : samples) {
      const Fact j = a.join(b);
      const Fact m = a.meet(b);
      EXPECT_TRUE(a.refines(j));
      EXPECT_TRUE(b.refines(j));
      for (std::uint64_t v = 0; v < 16; ++v) {
        const BitVector bvv = bvU(w, v);
        const bool inA = a.contains(bvv), inB = b.contains(bvv);
        if (inA || inB) {
          EXPECT_TRUE(j.contains(bvv));
        }
        if (inA && inB) {
          ASSERT_FALSE(m.isBottom());
          EXPECT_TRUE(m.contains(bvv));
        }
        if (!m.isBottom() && m.contains(bvv)) {
          // The meet never invents values outside either operand.
          EXPECT_TRUE(inA);
          EXPECT_TRUE(inB);
        }
      }
    }
  }
}

TEST(AbsintDomain, ConstantTopBottomBasics) {
  const Fact c = Fact::constant(bvU(8, 42));
  EXPECT_TRUE(c.isConstant());
  EXPECT_EQ(c.constantValue().toUint64(), 42u);
  EXPECT_EQ(c.knownBitCount(), 8u);
  const Fact t = Fact::top(8);
  EXPECT_TRUE(t.isTop());
  EXPECT_FALSE(t.isConstant());
  const Fact b = Fact::bottom(8);
  EXPECT_TRUE(b.isBottom());
  EXPECT_FALSE(b.contains(bvU(8, 0)));
  // Disjoint intervals meet to bottom.
  const Fact lo = Fact::interval(bvU(8, 0), bvU(8, 9));
  const Fact hi = Fact::interval(bvU(8, 200), bvU(8, 255));
  EXPECT_TRUE(lo.meet(hi).isBottom());
  EXPECT_NE(lo.str().find("8'h09"), std::string::npos) << lo.str();
}

// ---------------------------------------------------------------------------
// Analysis: differential soundness sweep over every IR op at width 3.
//
// Three bounded scalar states, one array state, and one free input drive an
// output per op; concrete reachability is computed by exhaustive BFS with
// ir::Evaluator, and every reachable output value must be a member of the
// analysis fact.  The operand sets make the totalized cases reachable:
// z hits 0 (udiv/urem by zero) and the depth-3 array with a 2-bit index
// makes out-of-range reads reachable.
// ---------------------------------------------------------------------------

struct SweepFixture {
  ir::Context ctx;
  ir::TransitionSystem ts{ctx, "sweep"};
  ir::NodeRef x, y, z, arr, in;

  SweepFixture() {
    x = ts.addState("x", 3, 1);  // saturating counter: [1,5]
    y = ts.addState("y", 3, 6);  // xor toggler: {5,6}
    z = ts.addState("z", 3, 0);  // saturating counter from 0: [0,2]
    arr = ts.addState("arr", ir::Type{3, 3},
                      ir::Value::makeArray({bvU(3, 1), bvU(3, 2), bvU(3, 3)}));
    in = ts.addInput("i", 1);

    ts.setNext(x, ctx.mux(ctx.ult(x, ctx.constantUint(3, 5)),
                          ctx.add(x, ctx.one(3)), x));
    ts.setNext(y, ctx.bitXor(y, ctx.constantUint(3, 3)));
    // Advances only when the free input is high, so the (x, y, z) phases
    // decouple and the BFS visits a richer product of operand values.
    ts.setNext(z, ctx.mux(in,
                          ctx.mux(ctx.ult(z, ctx.constantUint(3, 2)),
                                  ctx.add(z, ctx.one(3)), z),
                          z));
    ts.setNext(arr, ctx.arrayWrite(arr, ctx.extract(y, 1, 0), x));

    auto out = [&](const std::string& name, ir::NodeRef e) {
      ts.addOutput(name, e);
    };
    out("add", ctx.add(x, y));
    out("sub", ctx.sub(x, y));
    out("mul", ctx.mul(x, y));
    out("udiv", ctx.udiv(x, z));  // z reaches 0: totalized
    out("urem", ctx.urem(x, z));
    out("sdiv", ctx.sdiv(y, z));
    out("srem", ctx.srem(y, z));
    out("neg", ctx.neg(y));
    out("and", ctx.bitAnd(x, y));
    out("or", ctx.bitOr(x, y));
    out("xor", ctx.bitXor(x, y));
    out("not", ctx.bitNot(x));
    out("shl", ctx.shl(x, z));
    out("lshr", ctx.lshr(x, z));
    out("ashr", ctx.ashr(y, z));
    out("eq", ctx.eq(x, y));
    out("ne", ctx.ne(x, y));
    out("ult", ctx.ult(x, y));
    out("ule", ctx.ule(x, y));
    out("slt", ctx.slt(x, y));
    out("sle", ctx.sle(x, y));
    out("mux_in", ctx.mux(in, x, y));
    out("mux_cmp", ctx.mux(ctx.ult(y, x), x, y));
    out("concat", ctx.concat(x, y));
    out("extract", ctx.extract(y, 2, 1));
    out("zext", ctx.zext(x, 6));
    out("sext", ctx.sext(y, 6));
    out("redand", ctx.redAnd(x));
    out("redor", ctx.redOr(x));
    out("redxor", ctx.redXor(y));
    // Read index reaches 3 on a depth-3 array: totalized out-of-range read.
    out("read", ctx.arrayRead(arr, ctx.extract(x, 1, 0)));
    out("read_written",
        ctx.arrayRead(ctx.arrayWrite(arr, ctx.extract(y, 1, 0), x),
                      ctx.extract(x, 1, 0)));
    // Constraints are ignored by the analysis (only enlarging is sound).
    ts.addConstraint(ctx.ult(x, ctx.constantUint(3, 7)));
    ts.validate();
  }
};

std::string stateKey(const std::vector<ir::Value>& vals) {
  std::string k;
  for (const ir::Value& v : vals) {
    if (v.isArray) {
      for (const BitVector& e : v.array) k += e.toString(16) + ",";
    } else {
      k += v.scalar.toString(16) + ";";
    }
  }
  return k;
}

TEST(AbsintAnalysis, EveryOpContainsEveryReachableValue) {
  SweepFixture f;
  const Analysis an = Analysis::run(f.ts);
  EXPECT_TRUE(an.converged());

  // Exhaustive reachability BFS over (states) x (input values).
  std::vector<std::vector<ir::Value>> frontier;
  std::unordered_set<std::string> seen;
  std::vector<ir::Value> init;
  for (const auto& sv : f.ts.states()) init.push_back(sv.init);
  frontier.push_back(init);
  seen.insert(stateKey(init));
  std::size_t checkedStates = 0;

  while (!frontier.empty()) {
    const std::vector<ir::Value> cur = frontier.back();
    frontier.pop_back();
    ++checkedStates;
    for (std::uint64_t iv = 0; iv < 2; ++iv) {
      ir::Env env;
      for (std::size_t s = 0; s < cur.size(); ++s)
        env.emplace(f.ts.states()[s].current, cur[s]);
      env.emplace(f.in, ir::Value(bvU(1, iv)));

      // State facts contain the current concrete state.
      for (std::size_t s = 0; s < cur.size(); ++s) {
        const Fact sf = an.stateFact(f.ts.states()[s].current);
        if (cur[s].isArray) {
          for (const BitVector& e : cur[s].array)
            ASSERT_TRUE(sf.contains(e))
                << f.ts.states()[s].name() << " " << sf.str();
        } else {
          ASSERT_TRUE(sf.contains(cur[s].scalar))
              << f.ts.states()[s].name() << " " << sf.str();
        }
      }
      // Every output fact contains the concrete output.
      for (const auto& o : f.ts.outputs()) {
        const ir::Value v = ir::Evaluator::evaluate(o.expr, env);
        ASSERT_TRUE(an.fact(o.expr).contains(v.scalar))
            << o.name << ": " << an.fact(o.expr).str() << " misses "
            << v.scalar.toString(16);
      }
      // Step.
      std::vector<ir::Value> next;
      for (const auto& sv : f.ts.states())
        next.push_back(ir::Evaluator::evaluate(sv.next, env));
      if (seen.insert(stateKey(next)).second) frontier.push_back(next);
    }
  }
  // The sweep is only meaningful if the reachable set is non-trivial.
  EXPECT_GE(checkedStates, 10u);
}

TEST(AbsintAnalysis, SaturatingCounterGetsTightInterval) {
  SweepFixture f;
  const Analysis an = Analysis::run(f.ts);
  // x: init 1, saturates at 5 — the mux-arm refinement must keep the hull
  // at [1,5] instead of widening to top.
  const Fact fx = an.stateFact(f.x);
  EXPECT_EQ(fx.iv().lo.toUint64(), 1u);
  EXPECT_EQ(fx.iv().hi.toUint64(), 5u);
  // y toggles 6 <-> 5: bit 2 is known one.  (The xor transfer is bitwise,
  // so the hull is the known-bits hull [4,7], not the exact [5,6].)
  const Fact fy = an.stateFact(f.y);
  EXPECT_TRUE(fy.kb().ones.bit(2));
  EXPECT_EQ(fy.iv().lo.toUint64(), 4u);
  EXPECT_EQ(fy.iv().hi.toUint64(), 7u);
}

TEST(AbsintAnalysis, WrappingCounterWidensAndStaysSound) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "wrap");
  ir::NodeRef c = ts.addState("c", 8, 0);
  ts.setNext(c, ctx.add(c, ctx.one(8)));
  ts.addOutput("c", c);
  Options opts;
  opts.widenAfter = 4;
  const Analysis an = Analysis::run(ts, opts);
  EXPECT_TRUE(an.converged());
  EXPECT_TRUE(an.widened());
  // All 256 values are reachable, so only top is correct.
  EXPECT_TRUE(an.stateFact(c).isTop());
}

TEST(AbsintAnalysis, AnnotatorRendersFactsInPrintedExpressions) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "annot");
  ir::NodeRef s = ts.addState("s", 8, 3);
  ts.setNext(s, s);  // frozen at 3
  ir::NodeRef doubled = ctx.add(s, s);
  ts.addOutput("d", doubled);
  const Analysis an = Analysis::run(ts);
  const std::string plain = ir::printExpr(doubled);
  EXPECT_EQ(plain.find("@{"), std::string::npos);
  const std::string annotated = ir::printExpr(doubled, an.annotator());
  EXPECT_NE(annotated.find("@{"), std::string::npos)
      << "annotated form: " << annotated;
  EXPECT_NE(annotated.find("8'h06"), std::string::npos)
      << "expected the folded constant 6 in: " << annotated;
}

}  // namespace
}  // namespace dfv::absint
