// Tests for the sequential equivalence checking engine: combinational and
// multi-cycle transactions, counterexample extraction + replay, input
// constraints, and coupling invariants.

#include "sec/engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/truncsum.h"
#include "designs/wrapcnt.h"
#include "rtl/lower.h"
#include "rtl/mutate.h"
#include "rtl/netlist.h"
#include "slmc/elaborate.h"

namespace dfv::sec {
namespace {

using bv::BitVector;

/// SLM side: out = (a + b) computed in 9 bits (no overflow) — the int-based
/// C model of the paper's Fig 1.  RTL side: 8-bit wire tmp, then sign-extend
/// — overflow wraps.  SEC must find the divergence.
struct Fig1Fixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  rtl::Module rtlMod{"rtl"};
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<SecProblem> problem;

  explicit Fig1Fixture(bool buggyNarrowTmp) {
    // SLM (1-step): out9 = sext(a,9) + sext(b,9) + sext(c,9)
    ir::NodeRef a = slm.addInput("a", 8);
    ir::NodeRef b = slm.addInput("b", 8);
    ir::NodeRef c = slm.addInput("c", 8);
    ir::NodeRef wide = ctx.add(ctx.add(ctx.sext(a, 9), ctx.sext(b, 9)),
                               ctx.sext(c, 9));
    slm.addOutput("out", wide);

    // RTL: tmp = a + b (8-bit if buggy, 9-bit if correct); out = tmp + c.
    rtl::NetId ra = rtlMod.addInput("a", 8);
    rtl::NetId rb = rtlMod.addInput("b", 8);
    rtl::NetId rc = rtlMod.addInput("c", 8);
    rtl::NetId out;
    if (buggyNarrowTmp) {
      rtl::NetId tmp = rtlMod.opAdd(ra, rb);  // 8-bit: overflows
      out = rtlMod.opAdd(rtlMod.opSExt(tmp, 9), rtlMod.opSExt(rc, 9));
    } else {
      rtl::NetId tmp = rtlMod.opAdd(rtlMod.opSExt(ra, 9), rtlMod.opSExt(rb, 9));
      out = rtlMod.opAdd(tmp, rtlMod.opSExt(rc, 9));
    }
    rtlMod.addOutput("out", out);
    rtl = std::make_unique<ir::TransitionSystem>(
        rtl::lowerToTransitionSystem(rtlMod, ctx, "r."));

    problem = std::make_unique<SecProblem>(ctx, slm, 1, *rtl, 1);
    ir::NodeRef va = problem->declareTxnVar("a", 8);
    ir::NodeRef vb = problem->declareTxnVar("b", 8);
    ir::NodeRef vc = problem->declareTxnVar("c", 8);
    for (auto [name, v] :
         {std::pair{"a", va}, std::pair{"b", vb}, std::pair{"c", vc}}) {
      problem->bindInput(Side::kSlm, name, 0, v);
      problem->bindInput(Side::kRtl, std::string("r.") + name, 0, v);
    }
    problem->checkOutputs("out", 0, "out", 0);
  }
};

TEST(SecEngine, Fig1CorrectRtlProvenEquivalent) {
  Fig1Fixture f(/*buggyNarrowTmp=*/false);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
  EXPECT_FALSE(r.cex.has_value());
  EXPECT_TRUE(r.stats.inductionClosed);
}

TEST(SecEngine, Fig1NarrowTmpFindsCounterexample) {
  Fig1Fixture f(/*buggyNarrowTmp=*/true);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(r.cex.has_value());
  // Replay already validated the mismatch; check the witness wraps tmp:
  // |a + b| must exceed 8-bit signed range for the groupings to diverge.
  const auto& vars = r.cex->txnVarValues[r.cex->failingTransaction];
  const std::int64_t a = vars[0].toInt64();
  const std::int64_t b = vars[1].toInt64();
  const std::int64_t sum = a + b;
  EXPECT_TRUE(sum > 127 || sum < -128)
      << "witness a=" << a << " b=" << b << " does not overflow tmp";
  EXPECT_NE(r.cex->slmValue, r.cex->rtlValue);
}

TEST(SecEngine, ConstraintMasksTheDivergence) {
  // §3.1.2's technique: constrain the input space so the known difference
  // cannot show up.  Restrict all inputs to [0, 31]: tmp cannot overflow.
  Fig1Fixture f(/*buggyNarrowTmp=*/true);
  ir::Context& ctx = f.ctx;
  const auto& vars = f.problem->txnVars();
  for (ir::NodeRef v : vars)
    f.problem->addConstraint(ctx.ult(v, ctx.constantUint(8, 32)));
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 3});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
}

/// Multi-cycle transaction: RTL serially accumulates 4 samples (one per
/// cycle, cleared at cycle 0); SLM adds them in one step.
struct SerialSumFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  rtl::Module rtlMod{"rtl"};
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<SecProblem> problem;

  explicit SerialSumFixture(bool buggyDropLastSample = false) {
    // SLM: one step, out10 = sum of four 8-bit samples (10-bit, no loss).
    std::vector<ir::NodeRef> xs;
    ir::NodeRef sum = nullptr;
    for (int i = 0; i < 4; ++i) {
      ir::NodeRef x =
          slm.addInput("x" + std::to_string(i), 8);
      xs.push_back(x);
      ir::NodeRef w = ctx.zext(x, 10);
      sum = sum == nullptr ? w : ctx.add(sum, w);
    }
    slm.addOutput("sum", sum);

    // RTL: acc register accumulates the streamed sample each cycle;
    // cleared when `first` is high.  Output is combinational acc + sample.
    rtl::NetId sample = rtlMod.addInput("sample", 8);
    rtl::NetId first = rtlMod.addInput("first", 1);
    rtl::NetId acc = rtlMod.addDff("acc", 10, 0);
    rtl::NetId sampleW = rtlMod.opZExt(sample, 10);
    rtl::NetId accPlus = rtlMod.opAdd(acc, sampleW);
    // next acc: first ? sample : acc + sample
    rtl::NetId nextAcc = rtlMod.opMux(first, sampleW, accPlus);
    rtlMod.connectDff(acc, nextAcc);
    // Running total visible combinationally (so sum is ready at cycle 3).
    rtl::NetId total = buggyDropLastSample ? acc : accPlus;
    rtlMod.addOutput("sum", rtlMod.opMux(first, sampleW, total));
    rtl = std::make_unique<ir::TransitionSystem>(
        rtl::lowerToTransitionSystem(rtlMod, ctx, "r."));

    problem = std::make_unique<SecProblem>(ctx, slm, 1, *rtl, 4);
    std::vector<ir::NodeRef> vars;
    for (int i = 0; i < 4; ++i)
      vars.push_back(problem->declareTxnVar("x" + std::to_string(i), 8));
    for (int i = 0; i < 4; ++i) {
      problem->bindInput(Side::kSlm, "x" + std::to_string(i), 0, vars[static_cast<std::size_t>(i)]);
      problem->bindInput(Side::kRtl, "r.sample", static_cast<unsigned>(i),
                         vars[static_cast<std::size_t>(i)]);
      problem->bindInput(Side::kRtl, "r.first", static_cast<unsigned>(i),
                         ctx.constantUint(1, i == 0 ? 1 : 0));
    }
    problem->checkOutputs("sum", 0, "sum", 3);
  }
};

TEST(SecEngine, MultiCycleTransactionProven) {
  SerialSumFixture f;
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  // The RTL clears acc at cycle 0 of every transaction, so the output does
  // not depend on the starting state: induction closes with no invariants.
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
}

TEST(SecEngine, MultiCycleBugCaughtWithReplay) {
  SerialSumFixture f(/*buggyDropLastSample=*/true);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(r.cex.has_value());
  // The bug drops the last sample: the witness must have x3 != 0.
  const auto& vars = r.cex->txnVarValues[r.cex->failingTransaction];
  EXPECT_FALSE(vars[3].isZero());
  EXPECT_NE(r.cex->slmValue, r.cex->rtlValue);
  // Stimulus shape: every transaction carries 1 SLM cycle and 4 RTL cycles.
  EXPECT_EQ(r.cex->slmInputs[0].size(), 1u);
  EXPECT_EQ(r.cex->rtlInputs[0].size(), 4u);
}

/// Stateful across transactions: both sides keep a running checksum.  The
/// inductive step needs the coupling invariant slm.csum == rtl.csum.
struct ChecksumFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<SecProblem> problem;

  ChecksumFixture() {
    ir::NodeRef sx = slm.addInput("s.x", 8);
    ir::NodeRef scsum = slm.addState("s.csum", 8, 0);
    slm.setNext(scsum, ctx.add(scsum, sx));
    slm.addOutput("csum", ctx.add(scsum, sx));

    ir::NodeRef rx = rtl.addInput("r.x", 8);
    ir::NodeRef rcsum = rtl.addState("r.csum", 8, 0);
    // Same function, different structure: csum + ((x^0) + 0).
    rtl.setNext(rcsum, ctx.add(rcsum, ctx.bitXor(rx, ctx.zero(8))));
    rtl.addOutput("csum", ctx.add(rcsum, rx));

    problem = std::make_unique<SecProblem>(ctx, slm, 1, rtl, 1);
    ir::NodeRef v = problem->declareTxnVar("x", 8);
    problem->bindInput(Side::kSlm, "s.x", 0, v);
    problem->bindInput(Side::kRtl, "r.x", 0, v);
    problem->checkOutputs("csum", 0, "csum", 0);
  }
};

TEST(SecEngine, StatefulWithoutInvariantOnlyBounded) {
  ChecksumFixture f;
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 5});
  // BMC clean at depth 5 but induction cannot close: from arbitrary
  // (unequal) checksum states the outputs differ.
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  EXPECT_TRUE(r.stats.inductionAttempted);
  EXPECT_FALSE(r.stats.inductionClosed);
}

TEST(SecEngine, StatefulWithCouplingInvariantProven) {
  ChecksumFixture f;
  ir::NodeRef inv = f.ctx.eq(f.slm.findState("s.csum")->current,
                             f.rtl.findState("r.csum")->current);
  f.problem->addCouplingInvariant(inv);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
  EXPECT_TRUE(r.stats.inductionClosed);
}

TEST(SecEngine, BadInvariantFailsAtReset) {
  ChecksumFixture f;
  // An invariant the reset states do not satisfy cannot close induction.
  ir::NodeRef bogus = f.ctx.eq(f.slm.findState("s.csum")->current,
                               f.ctx.constantUint(8, 77));
  f.problem->addCouplingInvariant(bogus);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  EXPECT_FALSE(r.stats.inductionClosed);
}

TEST(SecEngine, MemoryStateDesign) {
  // SLM and RTL both implement a 4-entry register file write/read per
  // transaction; RTL via a memory array, SLM via the same array state
  // (structurally different write ordering).
  ir::Context ctx;
  ir::TransitionSystem slm(ctx, "slm");
  {
    ir::NodeRef wa = slm.addInput("s.waddr", 2);
    ir::NodeRef wd = slm.addInput("s.wdata", 8);
    ir::NodeRef ra = slm.addInput("s.raddr", 2);
    ir::NodeRef rf = slm.addState("s.rf", ir::Type{8, 4},
                                  ir::Value::filledArray(8, 4, BitVector(8)));
    slm.setNext(rf, ctx.arrayWrite(rf, wa, wd));
    // Read sees the just-written data (write-through model).
    slm.addOutput("rdata", ctx.arrayRead(ctx.arrayWrite(rf, wa, wd), ra));
  }
  ir::TransitionSystem rtl(ctx, "rtl");
  {
    ir::NodeRef wa = rtl.addInput("r.waddr", 2);
    ir::NodeRef wd = rtl.addInput("r.wdata", 8);
    ir::NodeRef ra = rtl.addInput("r.raddr", 2);
    ir::NodeRef rf = rtl.addState("r.rf", ir::Type{8, 4},
                                  ir::Value::filledArray(8, 4, BitVector(8)));
    rtl.setNext(rf, ctx.arrayWrite(rf, wa, wd));
    // Bypass network instead of write-through array read.
    ir::NodeRef hit = ctx.eq(ra, wa);
    rtl.addOutput("rdata", ctx.mux(hit, wd, ctx.arrayRead(rf, ra)));
  }
  SecProblem problem(ctx, slm, 1, rtl, 1);
  ir::NodeRef va = problem.declareTxnVar("waddr", 2);
  ir::NodeRef vd = problem.declareTxnVar("wdata", 8);
  ir::NodeRef vr = problem.declareTxnVar("raddr", 2);
  problem.bindInput(Side::kSlm, "s.waddr", 0, va);
  problem.bindInput(Side::kSlm, "s.wdata", 0, vd);
  problem.bindInput(Side::kSlm, "s.raddr", 0, vr);
  problem.bindInput(Side::kRtl, "r.waddr", 0, va);
  problem.bindInput(Side::kRtl, "r.wdata", 0, vd);
  problem.bindInput(Side::kRtl, "r.raddr", 0, vr);
  problem.checkOutputs("rdata", 0, "rdata", 0);
  // Coupling invariant: the register files agree element-wise.
  ir::NodeRef inv = ctx.boolConst(true);
  for (unsigned i = 0; i < 4; ++i) {
    ir::NodeRef idx = ctx.constantUint(2, i);
    inv = ctx.logicalAnd(
        inv, ctx.eq(ctx.arrayRead(slm.findState("s.rf")->current, idx),
                    ctx.arrayRead(rtl.findState("r.rf")->current, idx)));
  }
  problem.addCouplingInvariant(inv);
  SecResult r = checkEquivalence(problem, {.boundTransactions = 3});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
}

TEST(SecEngine, UnsatisfiableConstraintsRejectedAsVacuous) {
  // An over-constrained input space would make any pair "equivalent";
  // the engine must refuse instead of passing vacuously.
  Fig1Fixture f(/*buggyNarrowTmp=*/true);
  ir::Context& ctx = f.ctx;
  ir::NodeRef v = f.problem->txnVars()[0];
  f.problem->addConstraint(ctx.ult(v, ctx.constantUint(8, 10)));
  f.problem->addConstraint(ctx.ugt(v, ctx.constantUint(8, 20)));  // x<10 & x>20
  EXPECT_THROW(checkEquivalence(*f.problem, {.boundTransactions = 1}),
               CheckError);
}

TEST(SecEngine, SatisfiableConstraintsStillWork) {
  Fig1Fixture f(/*buggyNarrowTmp=*/true);
  ir::Context& ctx = f.ctx;
  ir::NodeRef v = f.problem->txnVars()[0];
  f.problem->addConstraint(ctx.ult(v, ctx.constantUint(8, 10)));
  // Narrow but satisfiable: the check proceeds (and still finds the bug
  // through the other two unconstrained operands).
  auto r = checkEquivalence(*f.problem, {.boundTransactions = 1});
  EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
  EXPECT_TRUE(r.cex->txnVarValues[0][0].ult(bv::BitVector::fromUint(8, 10)));
}

TEST(SecEngine, RejectsProblemWithoutChecks) {
  ir::Context ctx;
  ir::TransitionSystem a(ctx, "a"), b(ctx, "b");
  a.addOutput("x", ctx.zero(4));
  b.addOutput("x", ctx.zero(4));
  SecProblem p(ctx, a, 1, b, 1);
  EXPECT_THROW(checkEquivalence(p), CheckError);
}

TEST(SecEngine, FreeInputsAreUniversallyQuantified) {
  // RTL has an extra unmapped debug input that affects nothing checkable;
  // SEC must still prove equivalence (free inputs are universal).
  ir::Context ctx;
  ir::TransitionSystem slm(ctx, "slm");
  ir::NodeRef sx = slm.addInput("s.x", 8);
  slm.addOutput("y", ctx.add(sx, sx));

  ir::TransitionSystem rtl(ctx, "rtl");
  ir::NodeRef rx = rtl.addInput("r.x", 8);
  ir::NodeRef dbg = rtl.addInput("r.debug", 8);
  ir::NodeRef dbgReg = rtl.addState("r.dbgreg", 8, 0);
  rtl.setNext(dbgReg, dbg);  // captured but never observable
  rtl.addOutput("y", ctx.shl(rx, ctx.one(8)));

  SecProblem p(ctx, slm, 1, rtl, 1);
  ir::NodeRef v = p.declareTxnVar("x", 8);
  p.bindInput(Side::kSlm, "s.x", 0, v);
  p.bindInput(Side::kRtl, "r.x", 0, v);
  p.checkOutputs("y", 0, "y", 0);
  SecResult r = checkEquivalence(p, {.boundTransactions = 2});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
}

TEST(SecEngine, AigNodeCountCoversBothGraphs) {
  // The induction step builds its own AIG; stats must report both graphs
  // and their sum, not silently drop the induction side.
  ChecksumFixture f;
  ir::NodeRef inv = f.ctx.eq(f.slm.findState("s.csum")->current,
                             f.rtl.findState("r.csum")->current);
  f.problem->addCouplingInvariant(inv);
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 2});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
  ASSERT_TRUE(r.stats.inductionAttempted);
  EXPECT_GT(r.stats.bmcAigNodes, 0u);
  EXPECT_GT(r.stats.inductionAigNodes, 0u);
  EXPECT_EQ(r.stats.aigNodes,
            r.stats.bmcAigNodes + r.stats.inductionAigNodes);
}

TEST(SecEngine, BmcBudgetExhaustionIsInconclusive) {
  // A budget the first BMC solve cannot fit in: the engine must stop with
  // kInconclusive — no counterexample, no throw — and still report the
  // telemetry of the phase it was in.
  Fig1Fixture f(/*buggyNarrowTmp=*/true);
  SecOptions o;
  o.boundTransactions = 2;
  o.bmcBudget.maxPropagations = 1;
  SecResult r = checkEquivalence(*f.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive);
  EXPECT_FALSE(r.cex.has_value());
  EXPECT_EQ(r.stats.transactionsChecked, 1u);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 1u);
  EXPECT_TRUE(r.stats.bmcTransactions[0].budgetExhausted);
  EXPECT_GT(r.stats.bmcTransactions[0].propagations, 0u);
  EXPECT_GT(r.stats.aigNodes, 0u);
}

TEST(SecEngine, InductionBudgetCutoffKeepsSoundBoundedVerdict) {
  // Without the coupling invariant the inductive step needs a real solve
  // (it is satisfiable from unequal states).  Cutting that solve off must
  // not downgrade the sound bounded verdict — only the upgrade is lost.
  ChecksumFixture f;
  SecOptions o;
  o.boundTransactions = 3;
  o.inductionBudget.maxPropagations = 1;
  SecResult r = checkEquivalence(*f.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  EXPECT_TRUE(r.stats.inductionAttempted);
  EXPECT_FALSE(r.stats.inductionClosed);
  EXPECT_TRUE(r.stats.induction.budgetExhausted);
  EXPECT_GT(r.stats.induction.propagations, 0u);
  EXPECT_GT(r.stats.inductionAigNodes, 0u);
  // Per-phase entries exist for every BMC transaction that ran clean.
  ASSERT_EQ(r.stats.bmcTransactions.size(), 3u);
  for (const auto& phase : r.stats.bmcTransactions)
    EXPECT_FALSE(phase.budgetExhausted);
}

TEST(SecEngine, GenerousBudgetsDoNotChangeVerdicts) {
  // With budgets far above what the problems need, verdicts and
  // counterexamples are identical to unbudgeted runs.
  SecOptions generous;
  generous.boundTransactions = 2;
  generous.bmcBudget.maxConflicts = 1u << 20;
  generous.inductionBudget = generous.bmcBudget;
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/false);
    EXPECT_EQ(checkEquivalence(*f.problem, generous).verdict,
              Verdict::kProvenEquivalent);
  }
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/true);
    SecResult r = checkEquivalence(*f.problem, generous);
    ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
    EXPECT_TRUE(r.cex.has_value());
  }
}

/// Sides agree on transaction 0 (both output 0 from reset) and diverge
/// from transaction 1 on: state-dependent divergence needs BMC depth >= 2.
struct LaterTxnDivergenceFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<SecProblem> problem;

  LaterTxnDivergenceFixture() {
    ir::NodeRef sx = slm.addInput("s.x", 4);
    ir::NodeRef scnt = slm.addState("s.cnt", 4, 0);
    slm.setNext(scnt, ctx.add(scnt, ctx.one(4)));
    slm.addOutput("y", ctx.mul(scnt, sx));

    ir::NodeRef rx = rtl.addInput("r.x", 4);
    ir::NodeRef rcnt = rtl.addState("r.cnt", 4, 0);
    rtl.setNext(rcnt, ctx.add(rcnt, ctx.one(4)));
    rtl.addOutput("y", ctx.mul(rcnt, ctx.add(rx, rcnt)));  // cnt>0 diverges

    problem = std::make_unique<SecProblem>(ctx, slm, 1, rtl, 1);
    ir::NodeRef v = problem->declareTxnVar("x", 4);
    problem->bindInput(Side::kSlm, "s.x", 0, v);
    problem->bindInput(Side::kRtl, "r.x", 0, v);
    problem->checkOutputs("y", 0, "y", 0);
  }
};

TEST(SecEngine, CexOnLaterTransactionExercisesDepth) {
  LaterTxnDivergenceFixture f;
  SecResult r = checkEquivalence(*f.problem, {.boundTransactions = 4});
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GE(r.cex->failingTransaction, 1u);
}

/// SLM computes (a+b)+c, RTL computes a+(b+c), both in 9 bits: equivalent
/// (addition is associative modulo 2^9) but structurally distinct, so the
/// miter does not collapse by strashing alone -- fraig has to prove the
/// regrouped internal points equal.
/// Adder width at which the unswept probe runs out on a regrouped adder
/// miter (the plain solve needs about 526k propagations) while the sweep
/// merges it with a few dozen SAT calls: a check on it switches to sweeping
/// at its first phase.
constexpr unsigned kProbeDefeatingWidth = 24;

/// (a + b) + c against a + (b + c).  At the default 9 bits the unswept
/// probe decides it; at kProbeDefeatingWidth only the sweep does.
struct RegroupedAddFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<SecProblem> problem;

  explicit RegroupedAddFixture(unsigned width = 9) {
    ir::NodeRef a = slm.addInput("s.a", width);
    ir::NodeRef b = slm.addInput("s.b", width);
    ir::NodeRef c = slm.addInput("s.c", width);
    slm.addOutput("out", ctx.add(ctx.add(a, b), c));
    ir::NodeRef ra = rtl.addInput("r.a", width);
    ir::NodeRef rb = rtl.addInput("r.b", width);
    ir::NodeRef rc = rtl.addInput("r.c", width);
    rtl.addOutput("out", ctx.add(ra, ctx.add(rb, rc)));
    problem = std::make_unique<SecProblem>(ctx, slm, 1, rtl, 1);
    for (const char* n : {"a", "b", "c"}) {
      ir::NodeRef v = problem->declareTxnVar(n, width);
      problem->bindInput(Side::kSlm, std::string("s.") + n, 0, v);
      problem->bindInput(Side::kRtl, std::string("r.") + n, 0, v);
    }
    problem->checkOutputs("out", 0, "out", 0);
  }
};

TEST(SecFraig, VerdictsIdenticalWithFraigOnAndOff) {
  // The sweep merges only unconditionally-equivalent nodes, so it can never
  // change a verdict -- differentially check every fixture shape: proven,
  // refuted (with witness), and constraint-masked.
  SecOptions on, off;
  on.boundTransactions = off.boundTransactions = 2;
  on.fraig = true;
  off.fraig = false;
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/false);
    EXPECT_EQ(checkEquivalence(*f.problem, on).verdict,
              checkEquivalence(*f.problem, off).verdict);
  }
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/true);
    SecResult ron = checkEquivalence(*f.problem, on);
    SecResult roff = checkEquivalence(*f.problem, off);
    EXPECT_EQ(ron.verdict, Verdict::kNotEquivalent);
    EXPECT_EQ(roff.verdict, Verdict::kNotEquivalent);
    // Witnesses may differ, but both must exist and replay (replay is done
    // inside the engine; reaching here means both validated).
    EXPECT_TRUE(ron.cex.has_value());
    EXPECT_TRUE(roff.cex.has_value());
  }
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/true);
    for (ir::NodeRef v : f.problem->txnVars())
      f.problem->addConstraint(f.ctx.ult(v, f.ctx.constantUint(8, 32)));
    EXPECT_EQ(checkEquivalence(*f.problem, on).verdict,
              checkEquivalence(*f.problem, off).verdict);
  }
}

TEST(SecRewrite, ComposesWithFraigAndAlone) {
  // Structural aliasing rewrites the miter so both sides share state
  // variables; the sweep then merges what became equal.  Aliasing+fraig
  // (the default), aliasing-only, fraig-only, neither: all four miter
  // modes must agree on the verdict and find the same bug.
  for (bool buggy : {false, true}) {
    std::optional<SecResult> ref;
    for (bool alias : {false, true}) {
      for (bool fr : {false, true}) {
        Fig1Fixture f(buggy);
        SecOptions o{.boundTransactions = 2};
        o.structuralAliasing = alias;
        o.fraig = fr;
        SecResult r = checkEquivalence(*f.problem, o);
        if (!ref) ref = r;
        EXPECT_EQ(r.verdict, ref->verdict) << "alias=" << alias
                                           << " fraig=" << fr;
        EXPECT_EQ(r.verdict, buggy ? Verdict::kNotEquivalent
                                   : Verdict::kProvenEquivalent);
        EXPECT_EQ(r.cex.has_value(), buggy);
      }
    }
  }
}

TEST(SecFraig, SweepMergesRegroupedAdderAndFoldsStats) {
  // Wide enough that the probe fails, so the check sweeps.
  RegroupedAddFixture f(kProbeDefeatingWidth);
  SecOptions on, off;
  on.boundTransactions = off.boundTransactions = 1;
  on.fraig = true;
  off.fraig = false;
  SecResult ron = checkEquivalence(*f.problem, on);
  SecResult roff = checkEquivalence(*f.problem, off);
  EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
  EXPECT_EQ(roff.verdict, Verdict::kProvenEquivalent);
  // The regrouped adders are structurally distinct, so the sweep has real
  // work: it must prove internal equivalences and shrink the cone.
  EXPECT_GT(ron.stats.fraigMergedNodes, 0u);
  EXPECT_GT(ron.stats.fraigSatCalls, 0u);
  EXPECT_EQ(roff.stats.fraigMergedNodes, 0u);
  EXPECT_EQ(roff.stats.fraigSatCalls, 0u);
  // Per-phase stats record the cone shrinking.
  bool sawShrink = false;
  for (const auto& ph : ron.stats.bmcTransactions)
    if (ph.fraigNodesAfter < ph.fraigNodesBefore) sawShrink = true;
  EXPECT_TRUE(sawShrink);
}

// --- The incremental miter ------------------------------------------------
//
// A check solves each phase on the plain unrolling first, as a probe
// capped in propagations; the first probe that runs out moves the check to
// the sweep pipeline for good, where one solver, encoder and swept graph
// serve it and each BMC depth sweeps only the nodes it added.  Verdicts and
// counterexamples must not depend on the fraig arm or on where a check
// switched, the sweep must never see an asserted fact, and its work is
// charged to the phase budget.

/// SLM latches a 24-bit transaction word and outputs "the previous word was
/// all ones" through a 23-gate AND tree; RTL outputs constant 0.  The
/// constraint (top bit clear) makes the two agree, so the tree is false
/// under the facts asserted at depth 0 — but not unconditionally.
///
/// With `hardFirstTxn`, both sides also output a regrouped adder of
/// kProbeDefeatingWidth bits in the first transaction only (a reset flag
/// gates it to 0 afterwards): depth 0's probe runs out and the check
/// switches to sweeping, while depth 1's delta is the AND tree alone.
struct LatchedAllOnesFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<SecProblem> problem;

  explicit LatchedAllOnesFixture(bool hardFirstTxn = false) {
    ir::NodeRef sx = slm.addInput("s.x", 24);
    ir::NodeRef s = slm.addState("s.last", 24, 0);
    slm.setNext(s, sx);
    slm.addOutput("y", ctx.eq(s, ctx.constantUint(24, 0xffffff)));
    rtl.addInput("r.x", 24);
    rtl.addOutput("y", ctx.zero(1));
    if (hardFirstTxn) {
      const unsigned w = kProbeDefeatingWidth;
      auto addFirstTxnSum = [&](ir::TransitionSystem& ts, const char* p,
                                bool leftGrouped) {
        ir::NodeRef a = ts.addInput(std::string(p) + "a", w);
        ir::NodeRef b = ts.addInput(std::string(p) + "b", w);
        ir::NodeRef c = ts.addInput(std::string(p) + "c", w);
        ir::NodeRef first = ts.addState(std::string(p) + "first", 1, 1);
        ts.setNext(first, ctx.zero(1));
        ir::NodeRef sum = leftGrouped ? ctx.add(ctx.add(a, b), c)
                                      : ctx.add(a, ctx.add(b, c));
        ts.addOutput("z", ctx.mux(first, sum, ctx.zero(w)));
      };
      addFirstTxnSum(slm, "s.", true);
      addFirstTxnSum(rtl, "r.", false);
    }
    problem = std::make_unique<SecProblem>(ctx, slm, 1, rtl, 1);
    ir::NodeRef v = problem->declareTxnVar("x", 24);
    problem->bindInput(Side::kSlm, "s.x", 0, v);
    problem->bindInput(Side::kRtl, "r.x", 0, v);
    // A single literal after blasting: the constraint adds no AND nodes.
    problem->addConstraint(ctx.eq(ctx.extract(v, 23, 23), ctx.zero(1)));
    problem->checkOutputs("y", 0, "y", 0);
    if (hardFirstTxn) {
      for (const char* n : {"a", "b", "c"}) {
        ir::NodeRef t = problem->declareTxnVar(n, kProbeDefeatingWidth);
        problem->bindInput(Side::kSlm, std::string("s.") + n, 0, t);
        problem->bindInput(Side::kRtl, std::string("r.") + n, 0, t);
      }
      problem->checkOutputs("z", 0, "z", 0);
    }
  }
};

TEST(SecMiter, SweepNeverMergesUnderAssertedFacts) {
  // Depth 1's only new cone is the AND tree over the depth-0 word.  Random
  // stimulus never sets all 24 bits, so the tree sits in constant-false's
  // class; with the depth-0 constraint visible, the proof would succeed and
  // the miter root would collapse to false.  The sweep runs in a
  // frame-local solver that holds no facts, so the proof is refuted and
  // the tree stays in the swept graph (the main solve, which holds the
  // facts, still proves the depth clean).  The first transaction's wide
  // adder makes the check sweep from depth 0 on.
  LatchedAllOnesFixture f(/*hardFirstTxn=*/true);
  SecOptions o{.boundTransactions = 2, .tryInduction = false};
  o.invariants = false;
  SecResult r = checkEquivalence(*f.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 2u);
  ASSERT_GT(r.stats.bmcTransactions[0].fraigSatCalls, 0u)
      << "depth 0's probe decided: the check never swept";
  const PhaseStats& depth1 = r.stats.bmcTransactions[1];
  EXPECT_GT(depth1.fraigSatCalls, 0u);
  EXPECT_GT(depth1.fraigNodesAfter, 0u)
      << "the sweep merged the depth-1 miter under an asserted fact";
}

TEST(SecMiter, SweepWorkIsChargedToThePhaseBudget) {
  // The regrouped adders merge only through SAT proofs.  A one-conflict
  // phase cap is below what the sweep needs: the phase must end
  // inconclusive with its sweep conflicts recorded, not run the sweep
  // uncapped and report a decided verdict.  The adder is wide enough that
  // the probe (capped at one conflict here, and outside the phase budget)
  // does not decide it first.
  RegroupedAddFixture f(kProbeDefeatingWidth);
  SecOptions o{.boundTransactions = 1};
  const SecResult free = checkEquivalence(*f.problem, o);
  ASSERT_EQ(free.verdict, Verdict::kProvenEquivalent);
  ASSERT_GT(free.stats.bmcTransactions[0].conflicts, 1u);
  o.bmcBudget.maxConflicts = 1;
  const SecResult capped = checkEquivalence(*f.problem, o);
  EXPECT_EQ(capped.verdict, Verdict::kInconclusive);
  ASSERT_EQ(capped.stats.bmcTransactions.size(), 1u);
  const PhaseStats& phase = capped.stats.bmcTransactions[0];
  EXPECT_TRUE(phase.budgetExhausted);
  EXPECT_EQ(phase.conflicts, 1u);
  EXPECT_GT(phase.fraigSatCalls, 0u);
  EXPECT_LE(phase.probeConflicts, 1u);
}

/// conv_win: the sharpen kernel's SLM against its RTL window (or a mutant
/// of it), one pixel per transaction.
struct ConvWinFixture {
  ir::Context ctx;
  slmc::Elaboration slm;
  ir::TransitionSystem rtl;
  std::unique_ptr<SecProblem> problem;

  explicit ConvWinFixture(const rtl::Module& rtlModule =
                              designs::makeConvWindowRtl(
                                  designs::ConvKernel::sharpen()))
      : slm(slmc::elaborate(
            designs::makeConvWindowSlm(designs::ConvKernel::sharpen()), ctx,
            "s.")),
        rtl(rtl::lowerToTransitionSystem(rtlModule, ctx, "r.")) {
    DFV_CHECK(slm.ok);
    problem = std::make_unique<SecProblem>(ctx, *slm.ts, 1, rtl, 1);
    for (unsigned i = 0; i < 9; ++i) {
      const std::string n = "p" + std::to_string(i);
      ir::NodeRef v = problem->declareTxnVar(n, 8);
      problem->bindInput(Side::kSlm, "s." + n, 0, v);
      problem->bindInput(Side::kRtl, "r." + n, 0, v);
    }
    problem->checkOutputs("ret", 0, "pix", 0);
  }
};

TEST(SecMiter, ProbeDecidesConvWinWithoutSweeping) {
  // conv_win at bound 1 is settled by the unswept probe: no fraig SAT call
  // and no frame-cache replay anywhere in the check.  Its single-edit RTL
  // mutants are refuted by the probe too, except the few whose plain solve
  // needs more propagations than the probe may spend; those switch and
  // sweep.  Either way the verdict, failing transaction and failing output
  // are the ones the fraig-off run finds (a counterexample only comes back
  // after it replayed on both interpreters).
  const rtl::Module golden =
      designs::makeConvWindowRtl(designs::ConvKernel::sharpen());
  const std::size_t sites = rtl::countMutationSites(golden);
  ASSERT_GT(sites, 0u);
  unsigned probeRefuted = 0;
  for (std::size_t i = 0; i <= sites; ++i) {
    const bool isGolden = i == sites;
    const rtl::Module m = isGolden ? golden : rtl::mutate(golden, i)->module;
    ConvWinFixture f(m);
    SecOptions on{.boundTransactions = 1};
    SecOptions off = on;
    off.fraig = false;
    const SecResult ron = checkEquivalence(*f.problem, on);
    const SecResult roff = checkEquivalence(*f.problem, off);
    if (isGolden) {
      EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
      EXPECT_EQ(ron.stats.fraigSatCalls, 0u);
      EXPECT_EQ(ron.stats.fraigMemoHits, 0u);
    }
    EXPECT_EQ(ron.verdict, roff.verdict) << "mutant " << i;
    ASSERT_EQ(ron.cex.has_value(), roff.cex.has_value()) << "mutant " << i;
    EXPECT_EQ(ron.cex.has_value(), ron.verdict == Verdict::kNotEquivalent);
    EXPECT_EQ(ron.stats.bmcAigNodes, roff.stats.bmcAigNodes);
    EXPECT_EQ(ron.stats.inductionAigNodes, roff.stats.inductionAigNodes);
    if (!ron.cex) continue;
    if (ron.stats.fraigSatCalls == 0) ++probeRefuted;
    EXPECT_EQ(ron.cex->failingTransaction, roff.cex->failingTransaction);
    EXPECT_EQ(ron.cex->check.slmOutput, roff.cex->check.slmOutput);
    EXPECT_EQ(ron.cex->check.rtlOutput, roff.cex->check.rtlOutput);
  }
  EXPECT_GT(probeRefuted, 0u);
}

TEST(SecMiter, IdenticalFramesSweepIdenticalDeltas) {
  // gcd_breakif's transactions unroll to same-shaped frames, so each BMC
  // depth sweeps the same number of new nodes: the miter's preprocessing
  // is linear in the bound, not quadratic.  (Its probe runs out at depth
  // 0, so the check sweeps every depth.)
  ir::Context ctx;
  designs::GcdSecSetup s = designs::makeGcdBreakIfSecProblem(ctx);
  SecOptions o{.boundTransactions = 4, .tryInduction = false};
  SecResult r = checkEquivalence(*s.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 4u);
  const PhaseStats& first = r.stats.bmcTransactions[0];
  EXPECT_GT(first.fraigNodesBefore, 0u);
  for (const PhaseStats& ph : r.stats.bmcTransactions)
    EXPECT_EQ(ph.fraigNodesBefore, first.fraigNodesBefore);
}

TEST(SecMiter, FrameCacheSweepsEachDistinctFrameOnce) {
  // From depth 2 on every BMC delta equals an earlier one, and the
  // induction step is one more copy of the same frame: all of them replay
  // the check's frame cache with no sweep SAT call, and report the stored
  // merge count.
  ir::Context ctx;
  designs::GcdSecSetup s = designs::makeGcdBreakIfSecProblem(ctx);
  SecOptions o{.boundTransactions = 4, .tryInduction = true};
  SecResult r = checkEquivalence(*s.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 4u);
  ASSERT_TRUE(r.stats.inductionAttempted);
  std::vector<PhaseStats> phases = r.stats.bmcTransactions;
  phases.push_back(r.stats.induction);
  EXPECT_GT(phases[0].fraigSatCalls, 0u);
  EXPECT_GT(phases[0].fraigMergedNodes, 0u);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i].fraigMergedNodes, phases[0].fraigMergedNodes)
        << "phase " << i;
    if (i < 2) continue;
    EXPECT_EQ(phases[i].fraigSatCalls, 0u) << "phase " << i;
    EXPECT_EQ(phases[i].fraigMemoHits, 1u) << "phase " << i;
  }
  EXPECT_GE(r.stats.fraigMemoHits, 3u);
  EXPECT_GE(deterministicCounters(r.stats).at("fraig_memo_hits"), 3u);
}

TEST(SecMiter, HardFrameSwitchesAtDepthZeroAndSweepsAsAlways) {
  // gcd_breakif's depth-0 probe runs out, so the check switches there and
  // sweeps exactly what an always-swept check sweeps: 4249 SAT calls over
  // a 20404-node delta at depth 0, then cache replays with no SAT call at
  // every later depth and in induction, which starts swept because the
  // check's cache already holds the frame.  Once switched, no phase
  // probes again.
  ir::Context ctx;
  designs::GcdSecSetup s = designs::makeGcdBreakIfSecProblem(ctx);
  const SecResult r =
      checkEquivalence(*s.problem, {.boundTransactions = 4});
  EXPECT_EQ(r.verdict, Verdict::kProvenEquivalent);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 4u);
  const PhaseStats& d0 = r.stats.bmcTransactions[0];
  EXPECT_GT(d0.probePropagations, 0u);
  EXPECT_EQ(d0.fraigSatCalls, 4249u);
  EXPECT_EQ(d0.fraigNodesBefore, 20404u);
  EXPECT_EQ(d0.fraigMemoHits, 0u);
  std::vector<PhaseStats> later(r.stats.bmcTransactions.begin() + 1,
                                r.stats.bmcTransactions.end());
  later.push_back(r.stats.induction);
  for (std::size_t i = 0; i < later.size(); ++i) {
    EXPECT_EQ(later[i].fraigMemoHits, 1u) << "phase " << i + 1;
    EXPECT_EQ(later[i].fraigSatCalls, 0u) << "phase " << i + 1;
    EXPECT_EQ(later[i].probeConflicts, 0u) << "phase " << i + 1;
    EXPECT_EQ(later[i].probePropagations, 0u) << "phase " << i + 1;
  }
}

TEST(SecMiter, UndrainedProbeKeepsBudgetFrontierCellsProven) {
  // The probe does not draw on the phase budget, so a cap the swept check
  // proves under still proves after a failed probe: fpadd8_safe at 4096
  // conflicts per phase (the SEC-BUDGET frontier), and gcd_breakif under
  // the 3.2M-propagation caps of the resilience ladder's fraig rung.
  {
    ir::Context ctx;
    designs::FpAddSecSetup s = designs::makeFpAddSecProblem(
        ctx, fp::Format::minifloat(), /*constrainToSafeBand=*/true);
    SecOptions o{.boundTransactions = 1};
    o.bmcBudget.maxConflicts = 4096;
    o.inductionBudget.maxConflicts = 4096;
    EXPECT_EQ(checkEquivalence(*s.problem, o).verdict,
              Verdict::kProvenEquivalent);
  }
  {
    ir::Context ctx;
    designs::GcdSecSetup s = designs::makeGcdBreakIfSecProblem(ctx);
    SecOptions o{.boundTransactions = 4};
    o.bmcBudget.maxPropagations = 3200000;
    o.inductionBudget.maxPropagations = 3200000;
    EXPECT_EQ(checkEquivalence(*s.problem, o).verdict,
              Verdict::kProvenEquivalent);
  }
}

TEST(SecMiter, VerdictParityAcrossFraigArmsAndBounds) {
  // Every fixture of this file, fraig on and off, at bounds 1 to 4: the
  // same verdict, failing transaction and failing output, and the same
  // unrolling sizes.  The fixtures cover probe-decided checks and checks
  // that switch to sweeping at their first phase.
  Fig1Fixture fig1Good(false), fig1Bug(true), fig1Masked(true);
  for (ir::NodeRef v : fig1Masked.problem->txnVars())
    fig1Masked.problem->addConstraint(
        fig1Masked.ctx.ult(v, fig1Masked.ctx.constantUint(8, 32)));
  SerialSumFixture serial, serialBug(/*buggyDropLastSample=*/true);
  ChecksumFixture checksum, checksumInv;
  checksumInv.problem->addCouplingInvariant(
      checksumInv.ctx.eq(checksumInv.slm.findState("s.csum")->current,
                         checksumInv.rtl.findState("r.csum")->current));
  RegroupedAddFixture regrouped, regroupedWide(kProbeDefeatingWidth);
  LaterTxnDivergenceFixture later;
  LatchedAllOnesFixture latched, latchedHard(/*hardFirstTxn=*/true);
  ConvWinFixture conv;
  const std::vector<std::pair<const char*, const SecProblem*>> problems = {
      {"fig1", fig1Good.problem.get()},
      {"fig1-bug", fig1Bug.problem.get()},
      {"fig1-masked", fig1Masked.problem.get()},
      {"serial-sum", serial.problem.get()},
      {"serial-sum-bug", serialBug.problem.get()},
      {"checksum", checksum.problem.get()},
      {"checksum-inv", checksumInv.problem.get()},
      {"regrouped", regrouped.problem.get()},
      {"regrouped-wide", regroupedWide.problem.get()},
      {"later-txn", later.problem.get()},
      {"latched", latched.problem.get()},
      {"latched-hard", latchedHard.problem.get()},
      {"conv-win", conv.problem.get()}};
  for (const auto& [name, problem] : problems) {
    for (unsigned k = 1; k <= 4; ++k) {
      SecOptions on{.boundTransactions = k};
      SecOptions off = on;
      off.fraig = false;
      const SecResult ron = checkEquivalence(*problem, on);
      const SecResult roff = checkEquivalence(*problem, off);
      // A cex only comes back after it replayed on both interpreters.
      for (const SecResult* r : {&ron, &roff})
        EXPECT_EQ(r->cex.has_value(), r->verdict == Verdict::kNotEquivalent);
      EXPECT_EQ(ron.verdict, roff.verdict) << name << " k=" << k;
      // The sweep works on the miter deltas, never on the unrollings.
      EXPECT_EQ(ron.stats.bmcAigNodes, roff.stats.bmcAigNodes) << name;
      EXPECT_EQ(ron.stats.inductionAigNodes, roff.stats.inductionAigNodes)
          << name;
      if (ron.cex && roff.cex) {
        EXPECT_EQ(ron.cex->failingTransaction, roff.cex->failingTransaction)
            << name << " k=" << k;
        EXPECT_EQ(ron.cex->check.slmOutput, roff.cex->check.slmOutput)
            << name << " k=" << k;
        EXPECT_EQ(ron.cex->check.rtlOutput, roff.cex->check.rtlOutput)
            << name << " k=" << k;
      }
    }
  }
  // The later-transaction bug is invisible at bound 1 and found at depth 1.
  EXPECT_EQ(checkEquivalence(*later.problem, {.boundTransactions = 1,
                                              .tryInduction = false})
                .verdict,
            Verdict::kBoundedEquivalent);
}

TEST(SecMiter, ExhaustedInductionSweepStillAssertsItsFacts) {
  // With aliasing off, fir's 7 coupling invariants are pending CNF facts
  // of the induction miter.  A one-conflict induction budget cuts the
  // induction sweep short; its unstored result must still map every fact
  // for clausification, and the bounded verdict must stand.
  ir::Context ctx;
  designs::FirSecSetup s =
      designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
  SecOptions o{.boundTransactions = 2, .tryInduction = true};
  o.structuralAliasing = false;
  o.inductionBudget.maxConflicts = 1;
  SecResult r = checkEquivalence(*s.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  EXPECT_TRUE(r.stats.inductionAttempted);
  EXPECT_FALSE(r.stats.inductionClosed);
  EXPECT_TRUE(r.stats.induction.budgetExhausted);
}

// --- Absint facts through the invariant miner ----------------------------
//
// The only way absint facts reach SEC is as candidates that dfv::inv
// certifies (inv::Options::mineAbsint).  Each design must get the same
// verdict with that mining on and off; the counters show the work.

SecResult runWithAbsintMining(const SecProblem& problem, bool mine) {
  SecOptions o;
  o.invOptions.mineAbsint = mine;
  return checkEquivalence(problem, o);
}

TEST(SecAbsint, TruncsumGoodPairProvenEitherWay) {
  // truncsum's SLM clamps its fold below 2^10, so the RTL's 10-bit
  // accumulator is exact.
  ir::Context ctxOn, ctxOff;
  designs::TruncsumSecSetup a = designs::makeTruncsumSecProblem(ctxOn);
  designs::TruncsumSecSetup b = designs::makeTruncsumSecProblem(ctxOff);
  const SecResult ron = runWithAbsintMining(*a.problem, true);
  const SecResult roff = runWithAbsintMining(*b.problem, false);
  EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
  EXPECT_EQ(roff.verdict, Verdict::kProvenEquivalent);
  EXPECT_GT(ron.stats.absint.seconds, 0.0);
  EXPECT_EQ(roff.stats.absint.seconds, 0.0);
}

TEST(SecAbsint, TruncsumNarrowPairRefutedEitherWay) {
  // The 8-bit accumulator drops sums in [256, 510]: a real divergence that
  // must come back as a replayed witness in both modes.
  ir::Context ctxOn, ctxOff;
  designs::TruncsumSecSetup a =
      designs::makeTruncsumSecProblem(ctxOn, /*narrow=*/true);
  designs::TruncsumSecSetup b =
      designs::makeTruncsumSecProblem(ctxOff, /*narrow=*/true);
  for (const SecResult& r : {runWithAbsintMining(*a.problem, true),
                             runWithAbsintMining(*b.problem, false)}) {
    EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
    ASSERT_TRUE(r.cex.has_value());
    // The observed values come from replaying the witness on both
    // interpreters, and they must disagree.
    EXPECT_NE(r.cex->slmValue, r.cex->rtlValue);
  }
}

TEST(SecAbsint, HistoProvenEitherWayAndNarrowsEveryBin) {
  ir::Context ctxOn, ctxOff;
  designs::HistoSecSetup a = designs::makeHistoSecProblem(ctxOn);
  designs::HistoSecSetup b = designs::makeHistoSecProblem(ctxOff);
  const SecResult ron = runWithAbsintMining(*a.problem, true);
  const SecResult roff = runWithAbsintMining(*b.problem, false);
  EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
  EXPECT_EQ(roff.verdict, Verdict::kProvenEquivalent);
  // Every 16-bit bin saturates at 1000 on both sides, so the fixpoint
  // bounds each bin and the miner certifies at least one fact per bin and
  // side beyond what the ternary masks give.
  EXPECT_GE(ron.stats.inv.certified,
            roff.stats.inv.certified + 2u * designs::kHistoBins);
}

// --- Structural-slice preprocessing (SecOptions::slice) ------------------
//
// Slice facts (cone-of-influence liveness and ternary-GFP sequential
// constants) are inductive, so the sliced systems feed BMC *and*
// induction.  The invariant is still verdict preservation: every fixture
// must get the identical verdict (and cex presence) with slice on and off.

void expectSliceParity(const std::function<SecResult(bool)>& run) {
  const SecResult on = run(true);
  const SecResult off = run(false);
  EXPECT_EQ(on.verdict, off.verdict);
  EXPECT_EQ(on.cex.has_value(), off.cex.has_value());
  EXPECT_TRUE(on.stats.slice.applied);
  EXPECT_FALSE(off.stats.slice.applied);
}

TEST(SecSlice, VerdictsIdenticalAcrossFixturesWithSliceOnAndOff) {
  for (bool buggy : {false, true}) {
    expectSliceParity([&](bool slice) {
      Fig1Fixture f(buggy);
      SecOptions o{.boundTransactions = 2};
      o.slice = slice;
      return checkEquivalence(*f.problem, o);
    });
    expectSliceParity([&](bool slice) {
      SerialSumFixture f(buggy);
      SecOptions o{.boundTransactions = 2};
      o.slice = slice;
      return checkEquivalence(*f.problem, o);
    });
    expectSliceParity([&](bool slice) {
      ir::Context ctx;
      designs::TruncsumSecSetup s =
          designs::makeTruncsumSecProblem(ctx, /*narrow=*/buggy);
      SecOptions o;
      o.slice = slice;
      return checkEquivalence(*s.problem, o);
    });
  }
  expectSliceParity([&](bool slice) {
    ChecksumFixture f;
    ir::NodeRef inv = f.ctx.eq(f.slm.findState("s.csum")->current,
                               f.rtl.findState("r.csum")->current);
    f.problem->addCouplingInvariant(inv);
    SecOptions o{.boundTransactions = 2};
    o.slice = slice;
    return checkEquivalence(*f.problem, o);
  });
}

TEST(SecSlice, HistoDebugBlockShrinksInductionOverFivePercent) {
  // The acceptance bar for the subsystem: histo's RTL observability
  // registers (dfv::slice's raison d'etre) are outside every checked cone,
  // and removing them must shrink the *induction* graph by more than 5%
  // with a bit-identical verdict.  Slice is the only layer allowed to.
  SecOptions on, off;
  on.slice = true;
  off.slice = false;
  on.boundTransactions = off.boundTransactions = 2;
  ir::Context ctxOn, ctxOff;
  designs::HistoSecSetup a = designs::makeHistoSecProblem(ctxOn);
  designs::HistoSecSetup b = designs::makeHistoSecProblem(ctxOff);
  SecResult ron = checkEquivalence(*a.problem, on);
  SecResult roff = checkEquivalence(*b.problem, off);
  EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
  EXPECT_EQ(roff.verdict, Verdict::kProvenEquivalent);
  EXPECT_LT(ron.stats.inductionAigNodes * 20,
            roff.stats.inductionAigNodes * 19);
  // The coupling-invariant leaves must survive slicing or structural
  // aliasing would silently stop working; induction must still close.
  EXPECT_TRUE(ron.stats.inductionClosed);
  // Telemetry: the five capture registers are sequential constants, the
  // free-running dbg_sum accumulator is severed; the SLM side is untouched.
  EXPECT_EQ(ron.stats.slice.rtl.seqConstants, 5u);
  EXPECT_EQ(ron.stats.slice.rtl.statesSevered, 1u);
  EXPECT_EQ(ron.stats.slice.slm.statesSevered, 0u);
}

TEST(SecSlice, SliceComposesWithFraig) {
  // Both layers on at once (the default) against both off: same verdict,
  // and the stats record the slice's work.
  SecOptions all, none;
  none.slice = none.fraig = false;
  ir::Context ctxA, ctxB;
  designs::HistoSecSetup a = designs::makeHistoSecProblem(ctxA);
  designs::HistoSecSetup b = designs::makeHistoSecProblem(ctxB);
  SecResult ra = checkEquivalence(*a.problem, all);
  SecResult rb = checkEquivalence(*b.problem, none);
  EXPECT_EQ(ra.verdict, rb.verdict);
  EXPECT_TRUE(ra.stats.slice.applied);
  EXPECT_LE(ra.stats.bmcAigNodes, rb.stats.bmcAigNodes);
  EXPECT_LT(ra.stats.inductionAigNodes, rb.stats.inductionAigNodes);
}

TEST(SecEngine, NegativeBudgetCapsAreRejectedOnEntry) {
  // sat::Budget caps are validated before any phase runs — a negative cap
  // is a contract violation at BOTH solve entry points (BMC and induction
  // budgets), not a silently-unlimited run.
  ChecksumFixture f;
  SecOptions opts;
  opts.bmcBudget.maxConflicts = -1;
  EXPECT_THROW(checkEquivalence(*f.problem, opts), CheckError);
  opts = SecOptions{};
  opts.inductionBudget.maxPropagations = -100;
  EXPECT_THROW(checkEquivalence(*f.problem, opts), CheckError);
  opts = SecOptions{};
  opts.bmcBudget.maxSeconds = -0.5;
  EXPECT_THROW(checkEquivalence(*f.problem, opts), CheckError);
  // The problem itself is fine: valid options still verify it.
  opts = SecOptions{};
  opts.boundTransactions = 2;
  EXPECT_EQ(checkEquivalence(*f.problem, opts).verdict,
            Verdict::kBoundedEquivalent);
}

TEST(SecEngine, ZeroBoundIsRejectedOnEntry) {
  // The BMC loop checks the reset-state base case and the constraints'
  // vacuity, so a run with no BMC transaction would prove nothing: a
  // coefficient bug would pass as bounded-equivalent and contradictory
  // constraints as proven-equivalent.  Both are rejected up front, with
  // induction on or off.
  for (const bool induction : {true, false}) {
    SCOPED_TRACE(induction ? "induction on" : "induction off");
    const SecOptions zero{.boundTransactions = 0, .tryInduction = induction};
    {
      ir::Context ctx;
      designs::FirSecSetup s =
          designs::makeFirSecProblem(ctx, designs::FirBug::kWrongCoefficient);
      EXPECT_THROW(checkEquivalence(*s.problem, zero), CheckError);
    }
    {
      ir::Context ctx;
      designs::FirSecSetup s =
          designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
      ir::NodeRef x = s.problem->txnVars()[0];
      s.problem->addConstraint(ctx.ult(x, ctx.constantUint(x->width(), 1)));
      s.problem->addConstraint(ctx.ugt(x, ctx.constantUint(x->width(), 2)));
      EXPECT_THROW(checkEquivalence(*s.problem, zero), CheckError);
    }
  }
}

// ---------------------------------------------------------------------------
// SecInvariants: the certified-invariant strengthening channel
// (SecOptions::invariants).  wrapcnt is the calibrated fixture: its two wrap
// comparators (>= vs ==) agree only on reachable states, so plain induction
// is SAT and the verdict stays bounded — until dfv::inv certifies
// ule(count, 10) and the hypothesis closes the gap.
// ---------------------------------------------------------------------------

TEST(SecInvariants, WrapcntFlipsBoundedToProven) {
  ir::Context ctx;
  designs::WrapcntSecSetup s = designs::makeWrapcntSecProblem(ctx);

  SecOptions off;
  off.boundTransactions = 3;
  off.invariants = false;
  SecResult roff = checkEquivalence(*s.problem, off);
  EXPECT_EQ(roff.verdict, Verdict::kBoundedEquivalent);
  EXPECT_TRUE(roff.stats.inductionAttempted);
  EXPECT_FALSE(roff.stats.inductionClosed);
  EXPECT_FALSE(roff.stats.inv.applied);
  EXPECT_EQ(roff.stats.inv.certified, 0u);

  SecOptions on;
  on.boundTransactions = 3;
  SecResult ron = checkEquivalence(*s.problem, on);
  EXPECT_EQ(ron.verdict, Verdict::kProvenEquivalent);
  EXPECT_TRUE(ron.stats.inductionClosed);
  EXPECT_TRUE(ron.stats.inv.applied);
  EXPECT_GT(ron.stats.inv.certified, 0u);
  EXPECT_EQ(ron.stats.inv.candidates,
            ron.stats.inv.certified + ron.stats.inv.dropped);
  EXPECT_FALSE(ron.stats.inv.budgetExhausted);
  EXPECT_GE(ron.stats.inv.rounds, 2u);  // one side each, at least
  // Certification cost is telemetry of its own, never folded into the
  // phase solver counters (which must replay bit-identically).
  EXPECT_GT(ron.stats.inv.certPropagations, 0u);
}

TEST(SecInvariants, VerdictParityAcrossFixtures) {
  // Certified invariants are entailed facts: asserting them may never
  // change any verdict or counterexample on designs whose inductions
  // already close (or already fail for non-reachability reasons).
  auto parity = [](SecProblem& p, unsigned bound) {
    SecOptions off;
    off.boundTransactions = bound;
    off.invariants = false;
    SecOptions on = off;
    on.invariants = true;
    SecResult roff = checkEquivalence(p, off);
    SecResult ron = checkEquivalence(p, on);
    EXPECT_EQ(roff.verdict, ron.verdict);
    EXPECT_EQ(roff.cex.has_value(), ron.cex.has_value());
    EXPECT_EQ(roff.stats.transactionsChecked, ron.stats.transactionsChecked);
    return ron;
  };
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/false);
    parity(*f.problem, 2);
  }
  {
    Fig1Fixture f(/*buggyNarrowTmp=*/true);
    parity(*f.problem, 2);
  }
  {
    ir::Context ctx;
    designs::TruncsumSecSetup s =
        designs::makeTruncsumSecProblem(ctx, /*narrow=*/false);
    parity(*s.problem, 2);
  }
  {
    ir::Context ctx;
    designs::HistoSecSetup s = designs::makeHistoSecProblem(ctx);
    parity(*s.problem, 2);
  }
}

TEST(SecInvariants, CertExhaustionDegradesToUncertifiedBoundedVerdict) {
  // A cert pool too small to finish Houdini must yield the same sound
  // bounded verdict as invariants=false — never a wrong one, and never a
  // skipped induction solve (the drained budget clamps to a fast-failing
  // minimum instead of zero).
  ir::Context ctx;
  designs::WrapcntSecSetup s = designs::makeWrapcntSecProblem(ctx);
  SecOptions o;
  o.boundTransactions = 3;
  o.inductionBudget.maxPropagations = 1;
  SecResult r = checkEquivalence(*s.problem, o);
  EXPECT_EQ(r.verdict, Verdict::kBoundedEquivalent);
  EXPECT_TRUE(r.stats.inv.applied);
  EXPECT_TRUE(r.stats.inv.budgetExhausted);
  EXPECT_EQ(r.stats.inv.certified, 0u);
  EXPECT_TRUE(r.stats.inductionAttempted);
  EXPECT_FALSE(r.stats.inductionClosed);
  EXPECT_TRUE(r.stats.induction.budgetExhausted);
  EXPECT_GT(r.stats.induction.propagations, 0u);
  EXPECT_GT(r.stats.inductionAigNodes, 0u);
}

}  // namespace
}  // namespace dfv::sec
