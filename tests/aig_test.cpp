// Tests for the AIG, the Tseitin CNF encoder, and the word-level bit
// blaster.  The central property: for every IR operation, the blasted
// circuit evaluated on random inputs agrees with the IR interpreter, and the
// CNF encoding agrees with the AIG simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>

#include "aig/aig.h"
#include "aig/bitblast.h"
#include "aig/cnf.h"
#include "aig/fraig.h"
#include "aig/frame.h"
#include "ir/eval.h"

namespace dfv::aig {
namespace {

using bv::BitVector;

TEST(Aig, ConstantFoldingAndHashing) {
  Aig g;
  const Lit a = g.makeInput("a");
  const Lit b = g.makeInput("b");
  EXPECT_EQ(g.makeAnd(a, kFalse), kFalse);
  EXPECT_EQ(g.makeAnd(a, kTrue), a);
  EXPECT_EQ(g.makeAnd(a, a), a);
  EXPECT_EQ(g.makeAnd(a, negate(a)), kFalse);
  const Lit ab1 = g.makeAnd(a, b);
  const Lit ab2 = g.makeAnd(b, a);
  EXPECT_EQ(ab1, ab2);  // structural hashing + commutativity
  const std::size_t before = g.numNodes();
  g.makeAnd(a, b);
  EXPECT_EQ(g.numNodes(), before);
}

TEST(Aig, StrashAgreesWithAMapReferenceAcrossTableGrowth) {
  // 600k random makeAnd calls per arm, about half of them repeats of an
  // earlier pair in either fan-in order, against a std::map reference of
  // every hashed pair.  The growing arm doubles its table from the minimum
  // size on the way; the reserved arm never rehashes.
  constexpr int kCalls = 600000;
  for (const bool reserve : {false, true}) {
    Aig g;
    if (reserve) g.reserve(kCalls + 64);
    const std::size_t reservedSlots = g.strashBucketCount();
    std::mt19937_64 rng(reserve ? 0x5a5a : 0xa5a5);
    std::vector<Lit> pool = {kFalse, kTrue};
    for (int i = 0; i < 64; ++i) pool.push_back(g.makeInput());
    std::map<std::pair<Lit, Lit>, Lit> ref;
    std::vector<std::pair<Lit, Lit>> asked;
    for (int call = 0; call < kCalls; ++call) {
      Lit a;
      Lit b;
      if (!asked.empty() && (rng() & 1)) {
        std::tie(a, b) = asked[rng() % asked.size()];
        if (rng() & 1) std::swap(a, b);
      } else {
        a = pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
        b = pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
      }
      Lit want;
      if (a == kFalse || b == kFalse || a == negate(b)) {
        want = kFalse;
      } else if (a == kTrue || a == b) {
        want = b;
      } else if (b == kTrue) {
        want = a;
      } else {
        const auto key = std::minmax(a, b);
        auto [it, fresh] =
            ref.try_emplace(key, static_cast<Lit>(g.numNodes() << 1));
        if (fresh) asked.push_back(key);
        want = it->second;
      }
      const std::size_t nodes = g.numNodes();
      const Lit got = g.makeAnd(a, b);
      ASSERT_EQ(got, want) << "call " << call;
      if (g.numNodes() != nodes) {
        ASSERT_EQ(nodeOf(got), nodes);
        ASSERT_EQ(g.fanin0(nodeOf(got)), std::min(a, b));
        ASSERT_EQ(g.fanin1(nodeOf(got)), std::max(a, b));
        if (rng() % 4 == 0) pool.push_back(got);
      }
    }
    EXPECT_EQ(g.numNodes(), 1 + 64 + ref.size());
    const std::size_t slots = g.strashBucketCount();
    EXPECT_EQ(slots & (slots - 1), 0u);  // a power of two
    EXPECT_GE(slots, 2 * ref.size());    // load factor at most 1/2
    if (reserve) {
      EXPECT_EQ(slots, reservedSlots);
    }
  }
}

TEST(Aig, EvaluateTruthTable) {
  Aig g;
  const Lit a = g.makeInput("a");
  const Lit b = g.makeInput("b");
  const Lit x = g.makeXor(a, b);
  for (int va = 0; va <= 1; ++va) {
    for (int vb = 0; vb <= 1; ++vb) {
      auto vals = g.evaluate({{nodeOf(a), va != 0}, {nodeOf(b), vb != 0}});
      EXPECT_EQ(Aig::litValue(vals, x), (va ^ vb) != 0);
      EXPECT_EQ(Aig::litValue(vals, g.makeMux(a, b, negate(b))),
                va ? (vb != 0) : (vb == 0));
    }
  }
}

TEST(CnfEncoder, MiterOfEquivalentCircuitsIsUnsat) {
  // (a & b) vs ~(~a | ~b): equivalent by De Morgan; XOR miter must be UNSAT.
  Aig g;
  const Lit a = g.makeInput("a");
  const Lit b = g.makeInput("b");
  const Lit f1 = g.makeAnd(a, b);
  const Lit f2 = negate(g.makeOr(negate(a), negate(b)));
  // Structural hashing may already merge them; build via CNF regardless.
  sat::Solver s;
  CnfEncoder enc(g, s);
  const Lit miter = g.makeXor(f1, f2);
  EXPECT_EQ(miter, kFalse);  // hashing catches it at the AIG level
  // A non-trivially-equal pair: a^b vs (a|b)&~(a&b) builds distinct nodes
  // only if we bypass makeXor; encode an inequivalent pair instead.
  const Lit g1 = g.makeXor(a, b);
  const Lit g2 = g.makeOr(a, b);  // differs when a=b=1
  enc.assertTrue(g.makeXor(g1, g2));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
  // The only difference is a=b=1.
  EXPECT_TRUE(s.modelValue(enc.satLit(a)));
  EXPECT_TRUE(s.modelValue(enc.satLit(b)));
}

TEST(CnfEncoder, ConstantLiterals) {
  Aig g;
  sat::Solver s;
  CnfEncoder enc(g, s);
  enc.assertTrue(kTrue);
  EXPECT_EQ(s.solve(), sat::Result::kSat);
  enc.assertTrue(kFalse);
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);
}

// ---------------------------------------------------------------------------
// Differential property tests: blasted circuits vs the IR interpreter.
// ---------------------------------------------------------------------------

BitVector wordToBitVector(const Aig& /*g*/, const Word& w,
                          const std::vector<bool>& nodeValues) {
  BitVector v(static_cast<unsigned>(w.size()));
  for (std::size_t i = 0; i < w.size(); ++i)
    v.setBit(static_cast<unsigned>(i), Aig::litValue(nodeValues, w[i]));
  return v;
}

class BlastProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlastProperty, AllOpsMatchInterpreter) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0xb1a5 + w);
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", w);
  ir::NodeRef b = ctx.input("b", w);
  ir::NodeRef s = ctx.input("s", 1);

  std::vector<ir::NodeRef> exprs = {
      ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.neg(a),
      ctx.udiv(a, b), ctx.urem(a, b), ctx.sdiv(a, b), ctx.srem(a, b),
      ctx.bitAnd(a, b), ctx.bitOr(a, b), ctx.bitXor(a, b), ctx.bitNot(a),
      ctx.shl(a, b), ctx.lshr(a, b), ctx.ashr(a, b),
      ctx.zext(ctx.eq(a, b), w), ctx.zext(ctx.ne(a, b), w),
      ctx.zext(ctx.ult(a, b), w), ctx.zext(ctx.ule(a, b), w),
      ctx.zext(ctx.slt(a, b), w), ctx.zext(ctx.sle(a, b), w),
      ctx.mux(s, a, b),
      ctx.extract(ctx.concat(a, b), w + w / 2, w / 2),
      ctx.zext(a, 2 * w + 3), ctx.sext(a, 2 * w + 3),
      ctx.zext(ctx.redAnd(a), w), ctx.zext(ctx.redOr(a), w),
      ctx.zext(ctx.redXor(a), w),
      // A composite: (a*b + (a ^ b)) >> s-ish amount
      ctx.add(ctx.mul(a, b), ctx.bitXor(a, b)),
  };

  // This sweep is the independent reference for ir::applyOp: it must reach
  // every op the kernel implements (at width 1, extract and the reductions
  // fold away).
  if (w > 1) {
    std::set<ir::Op> covered;
    std::vector<ir::NodeRef> stack(exprs.begin(), exprs.end());
    while (!stack.empty()) {
      ir::NodeRef n = stack.back();
      stack.pop_back();
      covered.insert(n->op());
      for (ir::NodeRef o : n->operands()) stack.push_back(o);
    }
    for (int op = 0; op <= static_cast<int>(ir::Op::kArrayWrite); ++op) {
      if (ir::isScalarOp(static_cast<ir::Op>(op))) {
        EXPECT_EQ(covered.count(static_cast<ir::Op>(op)), 1u)
            << ir::opName(static_cast<ir::Op>(op)) << " is not swept";
      }
    }
  }

  Aig g;
  BitBlaster blaster(g);
  const Word wa = blaster.freshWord(w, "a");
  const Word wb = blaster.freshWord(w, "b");
  const Word ws = blaster.freshWord(1, "s");
  blaster.bindScalar(a, wa);
  blaster.bindScalar(b, wb);
  blaster.bindScalar(s, ws);

  std::vector<Word> blasted;
  for (ir::NodeRef e : exprs) blasted.push_back(blaster.blast(e));

  for (int iter = 0; iter < 60; ++iter) {
    BitVector va(w), vb(w);
    for (unsigned i = 0; i < w; ++i) {
      va.setBit(i, rng() & 1);
      vb.setBit(i, rng() & 1);
    }
    // Bias toward interesting corner values occasionally.
    if (iter % 7 == 0) va = BitVector::allOnes(w);
    if (iter % 11 == 0) vb = BitVector(w);
    const bool vs = rng() & 1;

    std::map<std::uint32_t, bool> inputVals;
    for (unsigned i = 0; i < w; ++i) {
      inputVals[nodeOf(wa[i])] = va.bit(i);
      inputVals[nodeOf(wb[i])] = vb.bit(i);
    }
    inputVals[nodeOf(ws[0])] = vs;
    const auto nodeValues = g.evaluate(inputVals);

    ir::Env env{{a, ir::Value(va)},
                {b, ir::Value(vb)},
                {s, ir::Value(BitVector::fromUint(1, vs))}};
    ir::Evaluator ev(env);
    for (std::size_t e = 0; e < exprs.size(); ++e) {
      const BitVector expected = ev.eval(exprs[e]).scalar;
      const BitVector got = wordToBitVector(g, blasted[e], nodeValues);
      EXPECT_EQ(got, expected)
          << "expr " << e << " width " << w << " a=" << va << " b=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlastProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 16u));

TEST(Blast, ArrayReadWriteMatchesInterpreter) {
  std::mt19937_64 rng(0xa44a);
  ir::Context ctx;
  const ir::Type memT{8, 5};  // non-power-of-two depth stresses padding
  ir::NodeRef mem = ctx.state("mem", memT);
  ir::NodeRef idx = ctx.input("idx", memT.indexWidth());
  ir::NodeRef val = ctx.input("val", 8);
  ir::NodeRef sel = ctx.input("sel", 1);
  ir::NodeRef written = ctx.arrayWrite(mem, idx, val);
  ir::NodeRef muxed = ctx.mux(sel, written, mem);
  ir::NodeRef readBack = ctx.arrayRead(muxed, idx);

  Aig g;
  BitBlaster blaster(g);
  ArrayWord amem;
  std::vector<Word> memWords;
  for (unsigned i = 0; i < memT.depth; ++i)
    amem.elems.push_back(blaster.freshWord(8, "m" + std::to_string(i)));
  blaster.bindArray(mem, amem);
  const Word widx = blaster.freshWord(memT.indexWidth(), "idx");
  const Word wval = blaster.freshWord(8, "val");
  const Word wsel = blaster.freshWord(1, "sel");
  blaster.bindScalar(idx, widx);
  blaster.bindScalar(val, wval);
  blaster.bindScalar(sel, wsel);
  const Word out = blaster.blast(readBack);

  for (int iter = 0; iter < 100; ++iter) {
    std::vector<BitVector> contents;
    std::map<std::uint32_t, bool> inputVals;
    for (unsigned i = 0; i < memT.depth; ++i) {
      BitVector e = BitVector::fromUint(8, rng());
      contents.push_back(e);
      for (unsigned bit = 0; bit < 8; ++bit)
        inputVals[nodeOf(amem.elems[i][bit])] = e.bit(bit);
    }
    const BitVector vidx =
        BitVector::fromUint(memT.indexWidth(), rng());  // may be out of range
    const BitVector vval = BitVector::fromUint(8, rng());
    const bool vsel = rng() & 1;
    for (unsigned bit = 0; bit < vidx.width(); ++bit)
      inputVals[nodeOf(widx[bit])] = vidx.bit(bit);
    for (unsigned bit = 0; bit < 8; ++bit)
      inputVals[nodeOf(wval[bit])] = vval.bit(bit);
    inputVals[nodeOf(wsel[0])] = vsel;

    const auto nodeValues = g.evaluate(inputVals);
    ir::Env env{{mem, ir::Value::makeArray(contents)},
                {idx, ir::Value(vidx)},
                {val, ir::Value(vval)},
                {sel, ir::Value(BitVector::fromUint(1, vsel))}};
    EXPECT_EQ(wordToBitVector(g, out, nodeValues),
              ir::Evaluator::evaluate(readBack, env).scalar);
  }
}

TEST(Blast, CnfAgreesWithAigOnArithmetic) {
  // Assert via SAT that the 6-bit adder circuit has no input where it
  // disagrees with a second structurally different formulation (a - (-b)).
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 6);
  ir::NodeRef b = ctx.input("b", 6);
  ir::NodeRef sum = ctx.add(a, b);
  ir::NodeRef sum2 = ctx.sub(a, ctx.neg(b));

  Aig g;
  BitBlaster blaster(g);
  blaster.bindScalar(a, blaster.freshWord(6, "a"));
  blaster.bindScalar(b, blaster.freshWord(6, "b"));
  const Word w1 = blaster.blast(sum);
  const Word w2 = blaster.blast(sum2);
  Lit differ = kFalse;
  for (std::size_t i = 0; i < w1.size(); ++i)
    differ = g.makeOr(differ, g.makeXor(w1[i], w2[i]));

  sat::Solver s;
  CnfEncoder enc(g, s);
  enc.assertTrue(differ);
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);
}

TEST(Blast, CnfFindsTheOneDistinguishingInput) {
  // a*2 vs a<<1 agree; a*2 vs a+1 differ somewhere: SAT must find a witness
  // that really distinguishes them under the interpreter.
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 8);
  ir::NodeRef lhs = ctx.mul(a, ctx.constantUint(8, 3));
  ir::NodeRef rhs = ctx.add(ctx.add(a, a), a);  // equal: 3a
  ir::NodeRef rhsBad = ctx.add(ctx.add(a, a), ctx.constantUint(8, 1));

  Aig g;
  BitBlaster blaster(g);
  const Word wa = blaster.freshWord(8, "a");
  blaster.bindScalar(a, wa);
  const Word l = blaster.blast(lhs);
  const Word r = blaster.blast(rhs);
  const Word rb = blaster.blast(rhsBad);

  sat::Solver s;
  CnfEncoder enc(g, s);
  auto differLit = [&](const Word& x, const Word& y) {
    Lit d = kFalse;
    for (std::size_t i = 0; i < x.size(); ++i)
      d = g.makeOr(d, g.makeXor(x[i], y[i]));
    return enc.satLit(d);
  };
  EXPECT_EQ(s.solve({differLit(l, r)}), sat::Result::kUnsat);
  ASSERT_EQ(s.solve({differLit(l, rb)}), sat::Result::kSat);
  // Extract the witness and replay through the interpreter.
  BitVector va(8);
  for (unsigned i = 0; i < 8; ++i)
    va.setBit(i, s.modelValue(enc.satLit(wa[i])));
  ir::Env env{{a, ir::Value(va)}};
  EXPECT_NE(ir::Evaluator::evaluate(lhs, env).scalar,
            ir::Evaluator::evaluate(rhsBad, env).scalar);
}

// ---------------------------------------------------------------------------
// Polarity-aware CNF vs full Tseitin: differential equisatisfiability.
// ---------------------------------------------------------------------------

/// A random AIG built from and/or/xor/mux over randomly complemented
/// literals.  Returns `numRoots` random root literals.
std::vector<Lit> buildRandomAig(Aig& g, std::mt19937_64& rng,
                                unsigned numInputs, unsigned numOps,
                                unsigned numRoots) {
  std::vector<Lit> pool = {kFalse, kTrue};
  for (unsigned i = 0; i < numInputs; ++i)
    pool.push_back(g.makeInput("i" + std::to_string(i)));
  auto pick = [&] {
    Lit l = pool[rng() % pool.size()];
    return (rng() & 1) ? negate(l) : l;
  };
  for (unsigned i = 0; i < numOps; ++i) {
    const Lit a = pick();
    const Lit b = pick();
    switch (rng() % 4) {
      case 0: pool.push_back(g.makeAnd(a, b)); break;
      case 1: pool.push_back(g.makeOr(a, b)); break;
      case 2: pool.push_back(g.makeXor(a, b)); break;
      default: pool.push_back(g.makeMux(a, b, pick())); break;
    }
  }
  std::vector<Lit> roots;
  for (unsigned i = 0; i < numRoots; ++i) roots.push_back(pick());
  return roots;
}

/// Evaluates the graph under the dense input assignment `bits` (bit i of
/// `bits` is the value of the i-th input, in g.inputs() order).
std::vector<bool> evalUnderBits(const Aig& g, std::uint64_t bits) {
  std::map<std::uint32_t, bool> inputVals;
  std::size_t i = 0;
  for (const std::uint32_t in : g.inputs())
    inputVals[in] = (bits >> i++) & 1;
  return g.evaluate(inputVals);
}

TEST(CnfStyle, PlaistedGreenbaumEquisatisfiableWithTseitin) {
  std::mt19937_64 rng(0xc4f1);
  for (int iter = 0; iter < 40; ++iter) {
    Aig g;
    const auto roots =
        buildRandomAig(g, rng, 4 + rng() % 4, 10 + rng() % 40, 3);
    for (const Lit root : roots) {
      sat::Solver spg, sts;
      CnfEncoder pg(g, spg, CnfStyle::kPlaistedGreenbaum);
      CnfEncoder ts(g, sts, CnfStyle::kTseitin);
      pg.assertTrue(root);
      ts.assertTrue(root);
      const sat::Result rpg = spg.solve();
      ASSERT_EQ(rpg, sts.solve()) << "iter " << iter << " root " << root;
      // One-sided clauses can never outnumber the two-sided encoding.
      EXPECT_LE(pg.clausesEmitted(), ts.clausesEmitted());
      if (rpg != sat::Result::kSat) continue;
      // The PG model must certify the asserted root on the real circuit.
      std::map<std::uint32_t, bool> inputVals;
      for (const std::uint32_t in : g.inputs())
        inputVals[in] = spg.modelValueOr(pg.satLit(in << 1), false);
      EXPECT_TRUE(Aig::litValue(g.evaluate(inputVals), root))
          << "iter " << iter << " root " << root;
    }
  }
}

// ---------------------------------------------------------------------------
// Fraig: SAT sweeping must preserve semantics exactly, deterministically,
// under any budget.
// ---------------------------------------------------------------------------

struct FraigRun {
  Aig out;
  sat::Solver solver;
  std::unique_ptr<CnfEncoder> enc;
  Fraig::Result res;

  FraigRun(const Aig& src, const std::vector<Lit>& roots,
           FraigOptions options = {}) {
    enc = std::make_unique<CnfEncoder>(out, solver);
    res = Fraig(options).run(src, roots, out, *enc);
  }
};

TEST(Fraig, RandomAigsPreserveSemanticsExhaustively) {
  std::mt19937_64 rng(0xf4a16);
  for (int iter = 0; iter < 30; ++iter) {
    Aig g;
    const unsigned numInputs = 3 + rng() % 6;  // <= 8: exhaustive is cheap
    const auto roots = buildRandomAig(g, rng, numInputs, 15 + rng() % 60, 4);
    FraigRun run(g, roots);
    ASSERT_EQ(run.res.roots.size(), roots.size());
    for (std::uint64_t bits = 0; bits < (1ULL << numInputs); ++bits) {
      const auto srcVals = evalUnderBits(g, bits);
      const auto outVals = evalUnderBits(run.out, bits);
      for (std::size_t r = 0; r < roots.size(); ++r) {
        ASSERT_EQ(Aig::litValue(srcVals, roots[r]),
                  Aig::litValue(outVals, run.res.roots[r]))
            << "iter " << iter << " root " << r << " bits " << bits;
      }
    }
  }
}

TEST(Fraig, DeterministicAcrossRuns) {
  std::mt19937_64 rng(0xde7e);
  Aig g;
  const auto roots = buildRandomAig(g, rng, 8, 120, 4);
  FraigRun a(g, roots);
  FraigRun b(g, roots);
  EXPECT_EQ(a.res.roots, b.res.roots);
  EXPECT_EQ(a.res.nodeMap, b.res.nodeMap);
  EXPECT_EQ(a.res.stats.mergedNodes, b.res.stats.mergedNodes);
  EXPECT_EQ(a.res.stats.satCalls, b.res.stats.satCalls);
  EXPECT_EQ(a.out.numNodes(), b.out.numNodes());
}

TEST(Fraig, TinyBudgetIsStillSound) {
  // With an absurdly small per-candidate budget most proofs expire; the
  // sweep must stay semantics-preserving (it just merges less).
  std::mt19937_64 rng(0x71b7);
  FraigOptions options;
  options.candidateBudget = sat::Budget{/*maxConflicts=*/1, 0, 0.0};
  for (int iter = 0; iter < 10; ++iter) {
    Aig g;
    const unsigned numInputs = 4 + rng() % 4;
    const auto roots = buildRandomAig(g, rng, numInputs, 40 + rng() % 40, 3);
    FraigRun run(g, roots, options);
    for (std::uint64_t bits = 0; bits < (1ULL << numInputs); ++bits) {
      const auto srcVals = evalUnderBits(g, bits);
      const auto outVals = evalUnderBits(run.out, bits);
      for (std::size_t r = 0; r < roots.size(); ++r)
        ASSERT_EQ(Aig::litValue(srcVals, roots[r]),
                  Aig::litValue(outVals, run.res.roots[r]));
    }
  }
}

TEST(Fraig, MergesStructurallyDistinctEquivalentArithmetic) {
  // a+b and a-(-b) blast to different structures that strashing cannot
  // merge; the sweep must prove every output bit pair onto one literal.
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 6);
  ir::NodeRef b = ctx.input("b", 6);
  Aig g;
  BitBlaster blaster(g);
  blaster.bindScalar(a, blaster.freshWord(6, "a"));
  blaster.bindScalar(b, blaster.freshWord(6, "b"));
  const Word w1 = blaster.blast(ctx.add(a, b));
  const Word w2 = blaster.blast(ctx.sub(a, ctx.neg(b)));
  std::vector<Lit> roots;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    roots.push_back(w1[i]);
    roots.push_back(w2[i]);
  }
  FraigRun run(g, roots);
  for (std::size_t i = 0; i < w1.size(); ++i)
    EXPECT_EQ(run.res.roots[2 * i], run.res.roots[2 * i + 1]) << "bit " << i;
  EXPECT_LT(run.res.stats.nodesAfter, run.res.stats.nodesBefore);
  EXPECT_GT(run.res.stats.provenEquiv, 0u);
}

TEST(Fraig, SharedSolverRemainsUsableAfterSweep) {
  // The caller's follow-up query runs on the sweep's solver; proven merges
  // asserted as units must not contaminate an unrelated satisfiable query.
  Aig g;
  const Lit x = g.makeInput("x");
  const Lit y = g.makeInput("y");
  const Lit f1 = g.makeAnd(x, y);
  const Lit f2 = negate(g.makeOr(negate(x), negate(y)));  // strash-equal
  const Lit probe = g.makeXor(x, y);
  FraigRun run(g, {f1, f2, probe});
  EXPECT_EQ(run.res.roots[0], run.res.roots[1]);
  const sat::Lit q = run.enc->satLit(run.res.roots[2]);
  EXPECT_EQ(run.solver.solve({q}), sat::Result::kSat);
  EXPECT_EQ(run.solver.solve({~q}), sat::Result::kSat);
}

// ---------------------------------------------------------------------------
// FraigSession: one sweep per delta, each in a frame-local solver
// (FrameCache::Session with only the sweep stage), and the one-call budget.
// ---------------------------------------------------------------------------

/// Grows `g` by `newInputs` inputs and `numOps` random gates over `pool`
/// (which keeps every literal built so far, old frames included) and
/// returns `numRoots` roots drawn from the new gates.
std::vector<Lit> growRandomAig(Aig& g, std::mt19937_64& rng,
                               std::vector<Lit>& pool, unsigned newInputs,
                               unsigned numOps, unsigned numRoots) {
  for (unsigned i = 0; i < newInputs; ++i) pool.push_back(g.makeInput());
  const std::size_t firstNew = pool.size();
  auto pick = [&] {
    const Lit l = pool[rng() % pool.size()];
    return (rng() & 1) ? negate(l) : l;
  };
  for (unsigned i = 0; i < numOps; ++i) {
    const Lit a = pick();
    const Lit b = pick();
    switch (rng() % 3) {
      case 0: pool.push_back(g.makeAnd(a, b)); break;
      case 1: pool.push_back(g.makeXor(a, b)); break;
      default: pool.push_back(g.makeMux(a, b, pick())); break;
    }
  }
  std::vector<Lit> roots;
  for (unsigned i = 0; i < numRoots; ++i)
    roots.push_back(pool[firstNew + rng() % (pool.size() - firstNew)]);
  return roots;
}

TEST(FraigSession, DeltasPreserveSemanticsOfEveryRootSoFar) {
  std::mt19937_64 rng(0x5e55);
  for (int iter = 0; iter < 15; ++iter) {
    Aig g;
    Aig out;
    FrameCache cache(FraigOptions{});
    FrameCache::Session session(cache, out);
    std::vector<Lit> pool = {kFalse, kTrue};
    std::vector<Lit> roots;
    for (int step = 0; step < 3; ++step) {
      const auto fresh = growRandomAig(g, rng, pool, 2, 25, 3);
      const FrameCache::Result& res = session.extend(g, fresh);
      ASSERT_EQ(res.roots.size(), fresh.size());
      roots.insert(roots.end(), fresh.begin(), fresh.end());
      // The cumulative map stays exact for the roots of every earlier call.
      for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
        const auto srcVals = evalUnderBits(g, bits);
        const auto outVals = evalUnderBits(out, bits);
        for (const Lit r : roots)
          ASSERT_EQ(Aig::litValue(srcVals, r),
                    Aig::litValue(outVals, session.result().map(r)))
              << "iter " << iter << " step " << step << " bits " << bits;
      }
    }
  }
}

TEST(RewriteSession, DeltasPreserveSemanticsOfEveryRootSoFar) {
  // The session re-expresses each delta in the output graph.  Each step's
  // gates may read any earlier literal, so deltas reach back into what
  // earlier calls already swept; a starved sweep (one conflict per
  // candidate) leaves pairs unresolved and must stay exact too.
  FraigOptions starved;
  starved.seed = 0x0dd5eedULL;
  starved.candidateBudget = sat::Budget{/*maxConflicts=*/1, 0, 0.0};
  for (const FraigOptions& options : {FraigOptions{}, starved}) {
    std::mt19937_64 rng(0x5e55);
    for (int iter = 0; iter < 15; ++iter) {
      Aig g;
      Aig out;
      FrameCache cache(options);
      FrameCache::Session session(cache, out);
      std::vector<Lit> roots;
      std::vector<Lit> pool = {kFalse, kTrue};
      for (int step = 0; step < 3; ++step) {
        for (int i = 0; i < 2; ++i) pool.push_back(g.makeInput());
        const std::size_t firstNew = pool.size();
        for (int i = 0; i < 30; ++i) {
          const Lit a =
              pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
          const Lit b =
              pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
          pool.push_back((rng() & 1) ? g.makeAnd(a, b) : g.makeXor(a, b));
        }
        std::vector<Lit> fresh;
        for (int i = 0; i < 3; ++i)
          fresh.push_back(pool[firstNew + rng() % (pool.size() - firstNew)]);
        const FrameCache::Result& res = session.extend(g, fresh);
        ASSERT_EQ(res.roots.size(), fresh.size());
        EXPECT_LE(res.stats.fraig.nodesAfter, res.stats.fraig.nodesBefore);
        roots.insert(roots.end(), fresh.begin(), fresh.end());
        for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
          const auto srcVals = evalUnderBits(g, bits);
          const auto outVals = evalUnderBits(out, bits);
          for (const Lit r : roots)
            ASSERT_EQ(Aig::litValue(srcVals, r),
                      Aig::litValue(outVals, session.result().map(r)))
                << "iter " << iter << " step " << step << " bits " << bits;
        }
      }
    }
  }
}

TEST(FraigSession, RunIsOneExtendOfAFreshSession) {
  // Every input is a root, so the session's first delta holds every input
  // in the source order and sweeps on the same stimulus as a direct run.
  std::mt19937_64 rng(0x0e5e);
  Aig g;
  auto roots = buildRandomAig(g, rng, 8, 120, 4);
  for (const std::uint32_t in : g.inputs()) roots.push_back(in << 1);
  FraigRun run(g, roots);
  Aig out;
  FrameCache cache(FraigOptions{});
  FrameCache::Session session(cache, out);
  const FrameCache::Result& res = session.extend(g, roots);
  const FraigStats& fs = res.stats.fraig;
  EXPECT_FALSE(res.stats.cacheHit);
  EXPECT_EQ(fs.satCalls, run.res.stats.satCalls);
  EXPECT_EQ(fs.mergedNodes, run.res.stats.mergedNodes);
  EXPECT_EQ(fs.nodesBefore, run.res.stats.nodesBefore);
  EXPECT_EQ(fs.nodesAfter, run.res.stats.nodesAfter);
  for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
    const auto runVals = evalUnderBits(run.out, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (std::size_t r = 0; r < roots.size(); ++r)
      ASSERT_EQ(Aig::litValue(runVals, run.res.roots[r]),
                Aig::litValue(outVals, res.roots[r]))
          << "root " << r << " bits " << bits;
  }
}

TEST(FraigSession, ExhaustedBudgetLeavesTheDeltaSoundAndUnmerged) {
  // a+b vs a-(-b): every output bit pair needs a proof.  A one-conflict
  // budget for the whole call runs out after the first proof at most; the
  // rest of the cone is rebuilt unmerged and the call says so.
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 6);
  ir::NodeRef b = ctx.input("b", 6);
  Aig g;
  BitBlaster blaster(g);
  blaster.bindScalar(a, blaster.freshWord(6, "a"));
  blaster.bindScalar(b, blaster.freshWord(6, "b"));
  const Word w1 = blaster.blast(ctx.add(a, b));
  const Word w2 = blaster.blast(ctx.sub(a, ctx.neg(b)));
  std::vector<Lit> roots;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    roots.push_back(w1[i]);
    roots.push_back(w2[i]);
  }
  Aig out;
  sat::Solver solver;
  CnfEncoder enc(out, solver);
  const Fraig::Result res =
      Fraig().run(g, roots, out, enc, sat::Budget{/*maxConflicts=*/1, 0, 0.0});
  EXPECT_TRUE(res.stats.budgetExhausted);
  EXPECT_LE(res.stats.conflicts, 1u);
  bool someUnmerged = false;
  for (std::size_t i = 0; i < w1.size(); ++i)
    someUnmerged |= res.roots[2 * i] != res.roots[2 * i + 1];
  EXPECT_TRUE(someUnmerged);
  for (std::uint64_t bits = 0; bits < (1ULL << 12); ++bits) {
    const auto srcVals = evalUnderBits(g, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (std::size_t r = 0; r < roots.size(); ++r)
      ASSERT_EQ(Aig::litValue(srcVals, roots[r]),
                Aig::litValue(outVals, res.roots[r]));
  }
}

// ---------------------------------------------------------------------------
// FrameCache: a delta equal to a stored one, node for node and root for
// root, replays the stored sweep exactly; any other delta is swept afresh.
// ---------------------------------------------------------------------------

/// A BMC-shaped unrolling: frame t reads frame t-1's state word and a
/// fresh input word.  Returns each frame's roots (observation, next state).
/// The observation adds s and x two ways, a pair only the sweep can merge.
std::vector<std::vector<Lit>> unrollFrames(Aig& g, int numFrames) {
  ir::Context ctx;
  ir::NodeRef sv = ctx.input("s", 8);
  ir::NodeRef xv = ctx.input("x", 8);
  ir::NodeRef next = ctx.add(ctx.mul(sv, ctx.constantUint(8, 3)), xv);
  ir::NodeRef obs = ctx.bitXor(ctx.add(sv, xv), ctx.sub(sv, ctx.neg(xv)));
  Word state;
  {
    BitBlaster b(g);
    state = b.freshWord(8, "s0");
  }
  std::vector<std::vector<Lit>> frames;
  for (int t = 0; t < numFrames; ++t) {
    BitBlaster b(g);
    b.bindScalar(sv, state);
    b.bindScalar(xv, b.freshWord(8, "x" + std::to_string(t)));
    const Word o = b.blast(obs);
    state = b.blast(next);
    frames.emplace_back(o.begin(), o.end());
    frames.back().insert(frames.back().end(), state.begin(), state.end());
  }
  return frames;
}

TEST(FrameCache, IdenticalFramesCostIdenticalDeltas) {
  // Every frame is the same shape, so every extend sweeps the same number
  // of nodes — the session's cost is linear in the number of frames, not
  // quadratic.
  Aig g;
  const auto frames = unrollFrames(g, 5);
  Aig out;
  FrameCache cache(FraigOptions{});
  FrameCache::Session session(cache, out);
  std::vector<FraigStats> perFrame;
  for (const auto& f : frames)
    perFrame.push_back(session.extend(g, f).stats.fraig);
  ASSERT_GT(perFrame[0].nodesBefore, 0u);
  for (const FraigStats& st : perFrame) {
    EXPECT_EQ(st.nodesBefore, perFrame[0].nodesBefore);
    EXPECT_EQ(st.nodesAfter, perFrame[0].nodesAfter);
  }
}

/// Rebuilds the delta FrameCache::Session::extend will see for `roots` (the
/// not-yet-mapped cone, with each distinct mapped frontier node as one
/// input, in source id order) as a standalone graph `h`.  Returns the
/// mapped roots in `h`; `targets` gets each input's literal in the
/// session's output graph.
std::vector<Lit> standaloneDelta(const Aig& src, const FrameCache::Result& m,
                                 const std::vector<Lit>& roots, Aig& h,
                                 std::vector<Lit>& targets) {
  std::vector<bool> seen(src.numNodes(), false);
  std::vector<std::uint32_t> nodes;
  std::vector<std::uint32_t> stack;
  for (const Lit r : roots) stack.push_back(nodeOf(r));
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    nodes.push_back(n);
    if (m.isMapped(n << 1)) continue;
    stack.push_back(nodeOf(src.fanin0(n)));
    stack.push_back(nodeOf(src.fanin1(n)));
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<Lit> local(src.numNodes(), kFalse);
  std::map<std::uint32_t, Lit> inputOf;  // output node -> input of h
  auto at = [&](Lit l) { return local[nodeOf(l)] ^ (l & 1u); };
  for (const std::uint32_t n : nodes) {
    if (!m.isMapped(n << 1)) {
      local[n] = h.makeAnd(at(src.fanin0(n)), at(src.fanin1(n)));
      continue;
    }
    const Lit t = m.map(n << 1);
    if (nodeOf(t) == 0) {
      local[n] = t;
      continue;
    }
    auto [it, fresh] = inputOf.try_emplace(nodeOf(t), kFalse);
    if (fresh) {
      it->second = h.makeInput();
      targets.push_back(t & ~1u);
    }
    local[n] = it->second ^ (t & 1u);
  }
  std::vector<Lit> out;
  for (const Lit r : roots) out.push_back(at(r));
  return out;
}

bool sameCounters(const FrameStats& a, const FrameStats& b) {
  return a.fraig.nodesBefore == b.fraig.nodesBefore &&
         a.fraig.nodesAfter == b.fraig.nodesAfter &&
         a.fraig.mergedNodes == b.fraig.mergedNodes;
}

TEST(FrameCache, IdenticalFrameReplaysTheCacheExactly) {
  // Frames 1 and 2 see the same delta, so frame 2 replays the cache, and
  // what it appends must be exactly what a fresh sweep of that delta
  // builds: the same nodes, the same roots, the same merge counts.
  Aig g;
  const auto frames = unrollFrames(g, 3);
  Aig out;
  FrameCache cache(FraigOptions{});
  FrameCache::Session session(cache, out);
  const FrameStats s0 = session.extend(g, frames[0]).stats;
  const FrameStats s1 = session.extend(g, frames[1]).stats;
  EXPECT_FALSE(s0.cacheHit);

  // The reference: frame 2's delta as a fresh cache's first delta.
  Aig h;
  std::vector<Lit> targets;
  const std::vector<Lit> hRoots =
      standaloneDelta(g, session.result(), frames[2], h, targets);
  Aig hOut;
  FrameCache freshCache(FraigOptions{});
  FrameCache::Session fresh(freshCache, hOut);
  const FrameCache::Result& ref = fresh.extend(h, hRoots);
  EXPECT_FALSE(ref.stats.cacheHit);
  EXPECT_GT(ref.stats.fraig.mergedNodes, 0u);

  const std::size_t before = out.numNodes();
  const std::size_t entries = cache.size();
  const FrameCache::Result& hit = session.extend(g, frames[2]);
  EXPECT_TRUE(hit.stats.cacheHit);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(hit.stats.fraig.satCalls, 0u);
  EXPECT_TRUE(sameCounters(hit.stats, ref.stats));
  EXPECT_TRUE(sameCounters(hit.stats, s1));

  // Structure: replaying the reference's nodes through the pseudo-input
  // targets must find every one already in place, in the same number.
  std::vector<Lit> phi(hOut.numNodes(), kFalse);
  ASSERT_EQ(hOut.numInputs(), targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k)
    phi[hOut.inputs()[k]] = targets[k];
  std::size_t refAnds = 0;
  auto through = [&](Lit l) { return phi[nodeOf(l)] ^ (l & 1u); };
  const std::size_t after = out.numNodes();
  for (std::uint32_t n = 1; n < hOut.numNodes(); ++n) {
    if (!hOut.isAndNode(n)) continue;
    ++refAnds;
    phi[n] = out.makeAnd(through(hOut.fanin0(n)), through(hOut.fanin1(n)));
    ASSERT_GE(nodeOf(phi[n]), before) << "reference node " << n;
  }
  EXPECT_EQ(out.numNodes(), after);
  EXPECT_EQ(after - before, refAnds);
  ASSERT_EQ(hit.roots.size(), ref.roots.size());
  for (std::size_t r = 0; r < ref.roots.size(); ++r)
    EXPECT_EQ(hit.roots[r], through(ref.roots[r])) << "root " << r;

  // And the whole session still computes every frame's roots.
  std::mt19937_64 rng(0x3e30);
  for (int sample = 0; sample < 2000; ++sample) {
    const std::uint64_t bits = rng();
    const auto srcVals = evalUnderBits(g, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (const auto& f : frames)
      for (const Lit r : f)
        ASSERT_EQ(Aig::litValue(srcVals, r),
                  Aig::litValue(outVals, session.result().map(r)));
  }
}

/// A fixed 4-input cone: three roots over and/xor/mux shapes.  `variant`
/// perturbs it in one place: 1 complements one fan-in, 2 complements one
/// root, 3 creates the last input only after the first gates (the same
/// gates, but the input sits at a different position in the delta).
std::vector<Lit> fixedCone(Aig& g, int variant) {
  std::array<Lit, 4> x{};
  for (int i = 0; i < 3; ++i) x[static_cast<std::size_t>(i)] = g.makeInput();
  if (variant != 3) x[3] = g.makeInput();
  const Lit a = g.makeXor(x[0], x[1]);
  const Lit b = g.makeAnd(x[1], variant == 1 ? negate(x[2]) : x[2]);
  if (variant == 3) x[3] = g.makeInput();
  const Lit c = g.makeMux(a, b, x[3]);
  const Lit d = g.makeOr(c, g.makeAnd(x[0], x[3]));
  return {c, variant == 2 ? negate(d) : d, g.makeXor(d, b)};
}

TEST(FrameCache, MissesOnAnyStructuralDifference) {
  // Each variant has as many nodes and roots as the first cone; only an
  // exact node-for-node, root-for-root match may replay it.
  for (int variant = 0; variant <= 3; ++variant) {
    Aig g;
    const std::vector<Lit> first = fixedCone(g, 0);
    const std::vector<Lit> second = fixedCone(g, variant);
    Aig out;
    FrameCache cache(FraigOptions{});
    FrameCache::Session session(cache, out);
    const FrameStats s0 = session.extend(g, first).stats;
    const FrameStats s1 = session.extend(g, second).stats;
    EXPECT_FALSE(s0.cacheHit);
    EXPECT_EQ(s1.cacheHit, variant == 0) << "variant " << variant;
    EXPECT_EQ(cache.size(), variant == 0 ? 1u : 2u) << "variant " << variant;
    if (variant == 0) {
      EXPECT_TRUE(sameCounters(s0, s1));
    }
    for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
      const auto srcVals = evalUnderBits(g, bits);
      const auto outVals = evalUnderBits(out, bits);
      for (const auto& roots : {first, second})
        for (const Lit r : roots)
          ASSERT_EQ(Aig::litValue(srcVals, r),
                    Aig::litValue(outVals, session.result().map(r)))
              << "variant " << variant << " bits " << bits;
    }
  }
}

}  // namespace
}  // namespace dfv::aig
