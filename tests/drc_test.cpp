// Per-rule positive/negative tests for dfv::drc, the seed-cleanliness
// sweep, and the plan runner's DRC gate.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "common/check.h"
#include "core/resilient.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/macpipe.h"
#include "designs/memsys.h"
#include "designs/truncsum.h"
#include "designs/wrapcnt.h"
#include "drc/drc.h"
#include "rtl/sim.h"
#include "slmc/lint.h"

namespace dfv {
namespace {

using drc::DrcReport;
using drc::Rule;
using drc::Severity;

// ---------------------------------------------------------------------------
// RTL netlist rules
// ---------------------------------------------------------------------------

DrcReport checkModule(const rtl::Module& m) {
  DrcReport r;
  drc::checkNetlist(m, "", r);
  return r;
}

TEST(DrcRtl, CleanModuleHasNoDiagnostics) {
  rtl::Module m("clean");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId b = m.addInput("b", 8);
  m.addOutput("sum", m.opAdd(a, b));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(r.diagnostics().empty());
}

TEST(DrcRtl, UndrivenNetFeedingLogic) {
  rtl::Module m("undriven");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId floating = m.addNet(8, "floating");
  m.addOutput("out", m.opAdd(a, floating));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kUndrivenNet));
  EXPECT_GE(r.errors(), 1u);
}

TEST(DrcRtl, MultiplyDrivenNetThroughInstanceBinding) {
  rtl::Module child("child");
  rtl::NetId ci = child.addInput("i", 8);
  child.addOutput("o", child.opNot(ci));

  rtl::Module m("parent");
  rtl::NetId a = m.addInput("a", 8);  // also bound as the child's output
  m.addInstance("u0", child, {{"i", a}, {"o", a}});
  m.addOutput("out", m.opNot(a));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kMultiplyDrivenNet));
}

TEST(DrcRtl, UnconnectedPorts) {
  rtl::Module m("ports");
  m.addInput("used", 8);
  m.addInput("ignored", 8);  // never read
  rtl::NetId dangling = m.addNet(4, "dangling");
  m.addOutput("out", dangling);  // never driven
  m.addOutput("echo", m.opNot(m.findInput("used")));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kUnconnectedPort));
  // One warning (unread input) and one error (undriven output).
  EXPECT_GE(r.warnings(), 1u);
  EXPECT_GE(r.errors(), 1u);
}

TEST(DrcRtl, WidthMismatchViaReplaceCell) {
  rtl::Module m("widths");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId b = m.addInput("b", 4);
  rtl::NetId sum = m.opAdd(a, a);
  m.addOutput("out", sum);
  // Swap one operand for the narrow net behind the builder's back.
  rtl::Cell broken = m.cells()[0];
  broken.inputs[1] = b;
  m.replaceCell(0, broken);
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kWidthMismatch));
  EXPECT_GE(r.errors(), 1u);
}

TEST(DrcRtl, RegisterWithNoNextStateDriver) {
  rtl::Module m("regs");
  rtl::NetId q = m.addDff("r0", 8, 0);  // d never connected
  m.addOutput("out", q);
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kUnconnectedRegister));
  EXPECT_GE(r.errors(), 1u);
}

TEST(DrcRtl, DeadCell) {
  rtl::Module m("dead");
  rtl::NetId a = m.addInput("a", 8);
  m.opMul(a, a);  // result feeds nothing
  m.addOutput("out", m.opNot(a));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kDeadCell));
}

TEST(DrcRtl, UnreachableMuxArmAndConstantOutput) {
  rtl::Module m("constprop");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId selTrue = m.constantUint(1, 1);
  m.addOutput("picked", m.opMux(selTrue, m.constantUint(8, 7), a));
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kUnreachableMuxArm));
  // Selector constant 1: the then-arm (7) is live, so the output folds.
  EXPECT_TRUE(r.fired(Rule::kConstantOutput));
}

TEST(DrcRtl, CombinationalCycleReportsFullPath) {
  rtl::Module m("loop");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId x = m.opAdd(a, a);       // cell 0
  rtl::NetId y = m.opNot(x);          // cell 1
  m.addOutput("out", y);
  rtl::Cell broken = m.cells()[0];
  broken.inputs[1] = y;  // cell 0 now reads cell 1: a 2-cell loop
  m.replaceCell(0, broken);

  const auto cycle = rtl::findCombinationalCycle(m);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->cells.size(), 2u);
  const std::string path = cycle->describe(m);
  EXPECT_NE(path.find("->"), std::string::npos);

  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kCombinationalCycle));
  bool pathInMessage = false;
  for (const auto& d : r.diagnostics())
    if (d.rule == Rule::kCombinationalCycle &&
        d.message.find(path) != std::string::npos)
      pathInMessage = true;
  EXPECT_TRUE(pathInMessage);
}

TEST(DrcRtl, SimulatorReportsCyclePathInsteadOfBareFailure) {
  rtl::Module m("loop");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId x = m.opAdd(a, a);
  m.addOutput("out", x);
  rtl::Cell broken = m.cells()[0];
  broken.inputs[1] = x;  // self-loop
  m.replaceCell(0, broken);
  try {
    rtl::Simulator sim(m);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("combinational cycle"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("->"), std::string::npos);
  }
}

TEST(DrcRtl, HierarchicalModulesCheckedRecursively) {
  rtl::Module child("child");
  rtl::NetId ci = child.addInput("i", 8);
  child.addDff("stuck", 8, 0);  // never connected
  child.addOutput("o", child.opNot(ci));

  rtl::Module m("parent");
  rtl::NetId a = m.addInput("a", 8);
  rtl::NetId o = m.addNet(8, "o");
  m.addInstance("u0", child, {{"i", a}, {"o", o}});
  m.addOutput("out", o);
  const auto r = checkModule(m);
  EXPECT_TRUE(r.fired(Rule::kUnconnectedRegister));
  bool childLocation = false;
  for (const auto& d : r.diagnostics())
    if (d.location.find("u0") != std::string::npos) childLocation = true;
  EXPECT_TRUE(childLocation);
}

// ---------------------------------------------------------------------------
// IR / TransitionSystem rules
// ---------------------------------------------------------------------------

DrcReport checkTs(const ir::TransitionSystem& ts) {
  DrcReport r;
  drc::checkTransitionSystem(ts, "", r);
  return r;
}

TEST(DrcIr, UnreadInputIsInfoOnly) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "t");
  ir::NodeRef used = ts.addInput("used", 8);
  ts.addInput("ignored", 8);
  ts.addOutput("o", used);
  const auto r = checkTs(ts);
  EXPECT_TRUE(r.fired(Rule::kUnreadInput));
  EXPECT_TRUE(r.clean());  // advisory: constant folding severs inputs
}

TEST(DrcIr, LatentLatchAndConstantOutput) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "t");
  ir::NodeRef frozen = ts.addState("frozen", 8, 5);
  ts.setNext(frozen, frozen);  // identity: stuck at 5 forever
  ts.addOutput("o", ctx.add(frozen, ctx.one(8)));
  const auto r = checkTs(ts);
  EXPECT_TRUE(r.fired(Rule::kLatentLatch));
  EXPECT_TRUE(r.fired(Rule::kConstantTsOutput));
  EXPECT_GE(r.warnings(), 2u);
}

TEST(DrcIr, ArrayIdentityNextIsRomIdiomNotWarning) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "t");
  ir::NodeRef rom = ts.addState("rom", ir::Type{8, 16},
                                ir::Value::filledArray(8, 16,
                                                       bv::BitVector(8)));
  ts.setNext(rom, rom);
  ir::NodeRef addr = ts.addInput("addr", 4);
  ts.addOutput("o", ctx.arrayRead(rom, addr));
  const auto r = checkTs(ts);
  EXPECT_TRUE(r.fired(Rule::kLatentLatch));
  EXPECT_TRUE(r.clean());  // info severity for the ROM idiom
}

TEST(DrcIr, MissingNextIsAnError) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "t");
  ir::NodeRef s = ts.addState("s", 8, 0);
  ts.addOutput("o", s);
  const auto r = checkTs(ts);
  EXPECT_TRUE(r.fired(Rule::kMissingNext));
  EXPECT_GE(r.errors(), 1u);
}

TEST(DrcIr, ConstraintVacuityAndTriviality) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "t");
  ir::NodeRef in = ts.addInput("i", 8);
  ts.addOutput("o", in);
  ts.addConstraint(ctx.boolConst(false));  // assumes away everything
  ts.addConstraint(ctx.boolConst(true));   // constrains nothing
  const auto r = checkTs(ts);
  EXPECT_TRUE(r.fired(Rule::kVacuousConstraint));
  EXPECT_TRUE(r.fired(Rule::kTrivialConstraint));
  EXPECT_GE(r.errors(), 1u);
  EXPECT_EQ(r.count(Severity::kInfo), 1u);
}

// ---------------------------------------------------------------------------
// SEC-shape rules
// ---------------------------------------------------------------------------

TEST(DrcSec, UnmappedInputAndUncheckedOutput) {
  ir::Context ctx;
  ir::TransitionSystem slm(ctx, "slm");
  ir::NodeRef sa = slm.addInput("s.a", 8);
  slm.addInput("s.free", 8);  // never bound
  slm.addOutput("o", sa);
  slm.addOutput("extra", ctx.bitNot(sa));  // never checked
  ir::TransitionSystem rtl(ctx, "rtl");
  ir::NodeRef ra = rtl.addInput("r.a", 8);
  rtl.addOutput("o", ra);
  rtl.addOutput("debug", ctx.bitNot(ra));  // never checked (info side)
  sec::SecProblem p(ctx, slm, 1, rtl, 1);
  ir::NodeRef v = p.declareTxnVar("a", 8);
  p.bindInput(sec::Side::kSlm, "s.a", 0, v);
  p.bindInput(sec::Side::kRtl, "r.a", 0, v);
  p.checkOutputs("o", 0, "o", 0);

  DrcReport r;
  drc::checkSecShape(p, "t", r);
  EXPECT_TRUE(r.fired(Rule::kSecUnmappedInput));
  EXPECT_TRUE(r.fired(Rule::kSecUncheckedOutput));
  // Unmapped input + unchecked SLM output are warnings; the unchecked RTL
  // output (handshake idiom) is info.
  EXPECT_GE(r.warnings(), 2u);
  EXPECT_GE(r.count(Severity::kInfo), 1u);
}

TEST(DrcSec, GuardAccumulationFlagsBreakIfGcdOnly) {
  ir::Context ctx1;
  const auto conditioned = designs::makeGcdSecProblem(ctx1);
  DrcReport rc;
  drc::checkSecShape(*conditioned.problem, "gcd", rc);
  EXPECT_FALSE(rc.fired(Rule::kSecGuardAccumulation));

  ir::Context ctx2;
  const auto breakif = designs::makeGcdBreakIfSecProblem(ctx2);
  DrcReport rb;
  drc::checkSecShape(*breakif.problem, "gcd_break", rb);
  EXPECT_TRUE(rb.fired(Rule::kSecGuardAccumulation));
  EXPECT_FALSE(rb.clean());
}

TEST(DrcSec, MulShapeMismatchOnNarrowAccumulatorAndWrongCoefficient) {
  for (designs::FirBug bug : {designs::FirBug::kNarrowAccumulator,
                              designs::FirBug::kWrongCoefficient}) {
    ir::Context ctx;
    const auto setup = designs::makeFirSecProblem(ctx, bug);
    DrcReport r;
    drc::checkSecShape(*setup.problem, "fir", r);
    EXPECT_TRUE(r.fired(Rule::kSecMulShapeMismatch))
        << "bug " << static_cast<int>(bug);
  }
  // The seed pair's multiplier shapes line up exactly.
  ir::Context ctx;
  const auto seed = designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
  DrcReport r;
  drc::checkSecShape(*seed.problem, "fir", r);
  EXPECT_FALSE(r.fired(Rule::kSecMulShapeMismatch));
}

// ---------------------------------------------------------------------------
// SLM conditioning adapter
// ---------------------------------------------------------------------------

TEST(DrcSlm, AdapterFoldsLintViolationsAsErrors) {
  DrcReport r;
  drc::checkSlmConditioning(designs::makeGcdUnconditioned(), "", r);
  EXPECT_TRUE(r.fired(Rule::kSlmDynamicAllocation));
  EXPECT_TRUE(r.fired(Rule::kSlmNonStaticLoopBound));
  EXPECT_GE(r.errors(), 2u);
  // The adapter must agree with the lint it wraps, violation for violation.
  EXPECT_EQ(r.diagnostics().size(),
            slmc::lint(designs::makeGcdUnconditioned()).size());
}

TEST(DrcSlm, ConditionedModelsAreClean) {
  for (const auto& f : {designs::makeGcdConditioned(),
                        designs::makeGcdBreakIf(),
                        designs::makeConvWindowSlm(
                            designs::ConvKernel::sharpen())}) {
    DrcReport r;
    drc::checkSlmConditioning(f, "", r);
    EXPECT_TRUE(r.diagnostics().empty()) << f.name;
  }
}

// ---------------------------------------------------------------------------
// Differential sweep: every seed artifact is clean, violating variants are
// flagged.
// ---------------------------------------------------------------------------

TEST(DrcSweep, SeedPairsAreClean) {
  {
    ir::Context ctx;
    const auto fir = designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
    EXPECT_TRUE(drc::runDrc(*fir.problem, "fir").clean());
  }
  {
    ir::Context ctx;
    const auto gcd = designs::makeGcdSecProblem(ctx);
    EXPECT_TRUE(drc::runDrc(*gcd.problem, "gcd").clean());
  }
  {
    ir::Context ctx;
    const auto fp =
        designs::makeFpAddSecProblem(ctx, fp::Format::minifloat(), true);
    EXPECT_TRUE(drc::runDrc(*fp.problem, "fpadd").clean());
  }
  for (const rtl::Module& m :
       {designs::makeFirRtl(designs::FirBug::kNone),
        designs::makeConvWindowRtl(designs::ConvKernel::sharpen()),
        designs::makeConvRtl(16, designs::ConvKernel::sharpen()),
        designs::makeGcdRtl(), designs::makeMacPipeRtl(),
        designs::makeCacheRtl()}) {
    EXPECT_TRUE(checkModule(m).clean()) << m.name();
  }
}

TEST(DrcSweep, ViolatingVariantsAreFlagged) {
  {
    ir::Context ctx;
    const auto b = designs::makeGcdBreakIfSecProblem(ctx);
    EXPECT_FALSE(drc::runDrc(*b.problem, "gcd_break").clean());
  }
  {
    ir::Context ctx;
    const auto narrow =
        designs::makeFirSecProblem(ctx, designs::FirBug::kNarrowAccumulator);
    EXPECT_FALSE(drc::runDrc(*narrow.problem, "fir_narrow").clean());
  }
  {
    drc::DrcInputs in;
    const auto sw = designs::makeGcdUnconditioned();
    in.addSlm("gcd_sw", sw);
    EXPECT_GE(drc::runDrc(in).errors(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Invariant-strengthening advisories (dfv::inv's DRC face)
// ---------------------------------------------------------------------------

TEST(DrcInv, StrengthenedAdvisoryQuotesCertifiedPredicate) {
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  DrcReport r;
  drc::checkInvariantRules(ts, "wrapcnt", r);
  EXPECT_TRUE(r.fired(Rule::kInvariantStrengthened));
  EXPECT_FALSE(r.fired(Rule::kInvariantCandidateStorm));
  EXPECT_TRUE(r.clean());  // advisory: certified facts are good news
  for (const auto& d : r.diagnostics())
    if (d.rule == Rule::kInvariantStrengthened) {
      EXPECT_EQ(d.severity, Severity::kInfo);
      EXPECT_FALSE(d.evidence.empty());  // printExpr of the predicate
    }
}

TEST(DrcInv, CandidateStormWarnsAboveThreshold) {
  ir::Context ctx;
  ir::TransitionSystem ts = designs::makeWrapcntSlmTs(ctx);
  drc::InvRuleOptions opts;
  opts.stormThreshold = 1;  // wrapcnt mines more than one candidate
  DrcReport r;
  drc::checkInvariantRules(ts, "wrapcnt", r, opts);
  EXPECT_TRUE(r.fired(Rule::kInvariantCandidateStorm));
  EXPECT_FALSE(r.clean());
  EXPECT_GE(r.warnings(), 1u);
}

TEST(DrcReportTest, JsonShapeAndEscaping) {
  DrcReport r;
  r.add(Rule::kUndrivenNet, Severity::kError, drc::Layer::kRtl,
        "m/net '\"x\"'", "line1\nline2");
  const std::string js = r.toJson();
  EXPECT_NE(js.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(js.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(js.find("undriven-net"), std::string::npos);
  EXPECT_NE(js.find("\\\"x\\\""), std::string::npos);
  EXPECT_NE(js.find("\\n"), std::string::npos);
  EXPECT_EQ(js.find('\n'), std::string::npos);  // single-line JSON
}

TEST(DrcReportTest, MergeAndFiredRules) {
  DrcReport a, b;
  a.add(Rule::kDeadCell, Severity::kWarning, drc::Layer::kRtl, "x", "m");
  b.add(Rule::kUnreadInput, Severity::kInfo, drc::Layer::kIr, "y", "m");
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_EQ(a.firedRules().size(), 2u);
  EXPECT_TRUE(a.fired(Rule::kDeadCell));
  EXPECT_TRUE(a.fired(Rule::kUnreadInput));
}

// ---------------------------------------------------------------------------
// The plan runner's gate
// ---------------------------------------------------------------------------

core::ResilientRunner makeGatedPlan(bool drcErrors, bool* runnerCalled) {
  core::ResilientRunner plan("gated", {.maxAttempts = 1});
  plan.addCosimBlock("blk", 1, [runnerCalled](std::uint64_t) {
    *runnerCalled = true;
    return core::ResilientRunner::CosimOutcome{true, "ran"};
  });
  plan.setBlockDrc("blk", [drcErrors] {
    DrcReport r;
    if (drcErrors)
      r.add(Rule::kUndrivenNet, Severity::kError, drc::Layer::kRtl,
            "blk/net 'x'", "no driver");
    else
      r.add(Rule::kDeadCell, Severity::kWarning, drc::Layer::kRtl,
            "blk/cell#0", "dead");
    return r;
  });
  return plan;
}

TEST(DrcGate, BlockPolicyStopsDirtyBlockWithoutRunningIt) {
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/true, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kBlock);
  const auto report = plan.runAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.blocked, 1u);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_TRUE(report.blocks[0].blockedByDrc);
  EXPECT_EQ(report.blocks[0].attempts, 0u);  // nothing ran
  EXPECT_NE(report.blocks[0].detail.find("blocked by DRC"),
            std::string::npos);
  ASSERT_TRUE(report.blocks[0].drc.has_value());
  EXPECT_EQ(report.blocks[0].drc->errors(), 1u);
}

TEST(DrcGate, BlockPolicyLetsWarningsThrough) {
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/false, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kBlock);
  const auto report = plan.runAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.blocked, 0u);
  ASSERT_TRUE(report.blocks[0].drc.has_value());
  EXPECT_EQ(report.blocks[0].drc->warnings(), 1u);
}

TEST(DrcGate, WarnPolicyAttachesDiagnosticsAndRuns) {
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/true, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kWarn);
  const auto report = plan.runAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_TRUE(report.blocks[0].drc.has_value());
  EXPECT_EQ(report.blocks[0].drc->errors(), 1u);
}

TEST(DrcGate, OffPolicySkipsDrcEntirely) {
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/true, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kOff);
  const auto report = plan.runAll();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(report.blocks[0].drc.has_value());
}

TEST(DrcGate, StrictPolicyBlocksOnWarningsToo) {
  // kStrict is the semantic-rule gate: a warning-only report (which kBlock
  // waves through) must stop the block.
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/false, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kStrict);
  const auto report = plan.runAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(report.blocked, 1u);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_TRUE(report.blocks[0].blockedByDrc);
  ASSERT_TRUE(report.blocks[0].drc.has_value());
  EXPECT_EQ(report.blocks[0].drc->warnings(), 1u);
}

TEST(DrcGate, JsonCarriesBlockedStatusAndDiagnostics) {
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/true, &ran);
  plan.setDrcPolicy(core::DrcPolicy::kBlock);
  const auto report = plan.runAll();
  const std::string js = report.json("gated");
  EXPECT_NE(js.find("\"status\":\"blocked\""), std::string::npos);
  EXPECT_NE(js.find("\"drc\":{"), std::string::npos);
  EXPECT_NE(js.find("undriven-net"), std::string::npos);
  EXPECT_NE(js.find("\"blocked\":1"), std::string::npos);
  EXPECT_NE(js.find("\"attempts\":0"), std::string::npos);
}

TEST(DrcGate, ThrowingDrcRunnerFaultsTheBlockWithoutRunningIt) {
  // The runner never throws for runner failures, and a DRC runner is one.
  bool ran = false;
  auto plan = makeGatedPlan(/*drcErrors=*/false, &ran);
  plan.setBlockDrc("blk", []() -> DrcReport {
    throw CheckError("lint crashed");
  });
  core::PlanReport report;
  EXPECT_NO_THROW(report = plan.runAll());
  EXPECT_FALSE(ran);
  EXPECT_TRUE(report.blocks[0].faulted);
  EXPECT_FALSE(report.blocks[0].blockedByDrc);
  EXPECT_EQ(report.blocks[0].attempts, 0u);
  EXPECT_NE(report.blocks[0].detail.find("lint crashed"), std::string::npos);
  EXPECT_EQ(report.faulted, 1u);
}

// ---------------------------------------------------------------------------
// Semantic (abstract-interpretation) rules
// ---------------------------------------------------------------------------

TEST(DrcSemantic, TruncsumNarrowPairFlaggedStatically) {
  // The 8-bit register drops accumulator bits the analysis cannot prove
  // zero, and the resulting output hulls differ by two effective bits: the
  // checker must call the divergence before any SEC run (sec_test's
  // SecEngine.TruncsumAndHistoVerdictsAtDefaultOptions finds the matching
  // counterexample dynamically).
  ir::Context ctx;
  const auto narrow = designs::makeTruncsumSecProblem(ctx, /*narrow=*/true);
  const DrcReport r = drc::runDrc(*narrow.problem, "truncsum");
  EXPECT_TRUE(r.fired(Rule::kLossyTruncation));
  EXPECT_TRUE(r.fired(Rule::kSecOutputRangeMismatch));
  EXPECT_FALSE(r.clean());
  bool sawEvidence = false;
  for (const auto& d : r.diagnostics())
    if (d.rule == Rule::kSecOutputRangeMismatch) {
      EXPECT_NE(d.evidence.find("slm="), std::string::npos) << d.evidence;
      EXPECT_NE(d.str().find(d.evidence), std::string::npos) << d.str();
      sawEvidence = true;
    }
  EXPECT_TRUE(sawEvidence);
  EXPECT_NE(r.toJson().find("\"evidence\":\""), std::string::npos);
}

TEST(DrcSemantic, TruncsumGoodPairIsClean) {
  ir::Context ctx;
  const auto good = designs::makeTruncsumSecProblem(ctx);
  const DrcReport r = drc::runDrc(*good.problem, "truncsum");
  EXPECT_TRUE(r.clean()) << r.toJson();
  EXPECT_FALSE(r.fired(Rule::kLossyTruncation));
  EXPECT_FALSE(r.fired(Rule::kSecOutputRangeMismatch));
}

TEST(DrcSemantic, BoundedSquareReportsPossibleOverflowAsAdvisory) {
  // s stays in [0, 10], so s*s can need 7 bits but the mul is 4 wide.  The
  // finding is informational: modular arithmetic is a legitimate idiom, so
  // the report must stay clean.
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "sq");
  ir::NodeRef s = ts.addState("s", 4, 0);
  ts.setNext(s, ctx.mux(ctx.ult(s, ctx.constantUint(4, 10)),
                        ctx.add(s, ctx.one(4)), s));
  ts.addOutput("out", ctx.mul(s, s));
  DrcReport r;
  drc::checkSemantics(ts, "sq", r);
  EXPECT_TRUE(r.fired(Rule::kPossibleOverflow));
  EXPECT_TRUE(r.clean());
  // The saturating add itself stays in range and must NOT fire: 10+1 fits.
  unsigned overflowCount = 0;
  for (const auto& d : r.diagnostics())
    if (d.rule == Rule::kPossibleOverflow) ++overflowCount;
  EXPECT_EQ(overflowCount, 1u);
}

TEST(DrcSemantic, OutOfRangeMemoryIndexReported) {
  // Depth-3 array read with a free 2-bit index: index 3 totalizes.
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "mem");
  ir::NodeRef arr = ts.addState(
      "m", ir::Type{8, 3},
      ir::Value::makeArray({bv::BitVector(8), bv::BitVector(8),
                            bv::BitVector(8)}));
  ts.setNext(arr, arr);
  ir::NodeRef idx = ts.addInput("i", 2);
  ts.addOutput("out", ctx.arrayRead(arr, idx));
  DrcReport r;
  drc::checkSemantics(ts, "mem", r);
  EXPECT_TRUE(r.fired(Rule::kUninitMemoryRead));
  EXPECT_TRUE(r.clean());
}

TEST(DrcSemantic, ReadBeyondWriteCoverageReportedAndCoveredReadIsNot) {
  // Writes only ever land at indices [0, 1] (a capped counter); a read at a
  // free index can observe reset-only elements, a read at the counter
  // cannot.
  for (const bool covered : {false, true}) {
    ir::Context ctx;
    ir::TransitionSystem ts(ctx, "wcov");
    ir::NodeRef arr = ts.addState(
        "m", ir::Type{8, 4},
        ir::Value::makeArray({bv::BitVector(8), bv::BitVector(8),
                              bv::BitVector(8), bv::BitVector(8)}));
    ir::NodeRef c = ts.addState("c", 2, 0);
    ts.setNext(c, ctx.mux(ctx.ult(c, ctx.one(2)), ctx.add(c, ctx.one(2)), c));
    ir::NodeRef data = ts.addInput("d", 8);
    ts.setNext(arr, ctx.arrayWrite(arr, c, data));
    ir::NodeRef idx = covered ? c : ts.addInput("i", 2);
    ts.addOutput("out", ctx.arrayRead(arr, idx));
    DrcReport r;
    drc::checkSemantics(ts, "wcov", r);
    EXPECT_EQ(r.fired(Rule::kUninitMemoryRead), !covered);
    if (!covered) {
      ASSERT_EQ(r.diagnostics().size(), 1u);
      EXPECT_NE(r.diagnostics()[0].evidence.find("writes="),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Structural (slice-driven) rules
// ---------------------------------------------------------------------------

TEST(DrcSlice, DeadAndStuckStructureFiresEveryRuleAsInfo) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "sliced");
  ir::NodeRef x = ts.addInput("x", 4);
  ir::NodeRef acc = ts.addState("acc", 4, 0);
  ts.setNext(acc, ctx.add(acc, x));
  ts.addOutput("out", acc);
  // en only disarms from a 0 reset: stuck-at-reset.
  ir::NodeRef y = ts.addInput("y", 4);
  ir::NodeRef en = ts.addState("en", 1, 0);
  ts.setNext(en, ctx.bitAnd(en, ctx.redOr(y)));
  // spin free-runs but reaches no output or constraint: dead, and the input
  // feeding it is dead too (read, but only by dead logic).
  ir::NodeRef spin = ts.addState("spin", 4, 0);
  ts.setNext(spin, ctx.add(spin, y));

  DrcReport r;
  drc::checkSliceRules(ts, "sliced", r);
  EXPECT_TRUE(r.fired(Rule::kSliceDeadState));
  EXPECT_TRUE(r.fired(Rule::kSliceDeadInput));
  EXPECT_TRUE(r.fired(Rule::kSliceDeadLogic));
  EXPECT_TRUE(r.fired(Rule::kSliceStuckAtReset));
  // Structural findings are advisories: they never dirty a design, and each
  // carries concrete evidence (cone paths, fixpoint values).
  EXPECT_TRUE(r.clean());
  for (const auto& d : r.diagnostics()) {
    EXPECT_EQ(d.severity, Severity::kInfo);
    EXPECT_FALSE(d.evidence.empty()) << d.str();
  }
}

TEST(DrcSlice, FullyLiveSystemFiresNothing) {
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "live");
  ir::NodeRef x = ts.addInput("x", 4);
  ir::NodeRef acc = ts.addState("acc", 4, 0);
  ts.setNext(acc, ctx.add(acc, x));
  ts.addOutput("out", acc);
  DrcReport r;
  drc::checkSliceRules(ts, "live", r);
  EXPECT_TRUE(r.diagnostics().empty());
}

TEST(DrcSlice, LatentLatchIsNotDoubleReportedAsStuckAtReset) {
  // next == current is kLatentLatch's finding; the slice rule must skip it
  // even though the ternary fixpoint also proves it constant.
  ir::Context ctx;
  ir::TransitionSystem ts(ctx, "latch");
  ir::NodeRef s = ts.addState("s", 4, 7);
  ts.setNext(s, s);
  ts.addOutput("out", s);
  DrcReport r;
  drc::checkSliceRules(ts, "latch", r);
  EXPECT_FALSE(r.fired(Rule::kSliceStuckAtReset));
}

TEST(DrcSlice, HistoDebugBlockReportedButPairStaysClean) {
  // The histo RTL observability registers are exactly what the slice rules
  // exist to surface: the full-pair DRC must flag the stuck capture
  // registers while the pair still gates as clean.  (The dead dbg_sum cone
  // does NOT fire here: at the TS level it feeds a declared output — only
  // the SEC engine, which knows which outputs are *checked*, severs it.)
  ir::Context ctx;
  designs::HistoSecSetup s = designs::makeHistoSecProblem(ctx);
  const DrcReport r = drc::runDrc(*s.problem, "histo");
  EXPECT_TRUE(r.fired(Rule::kSliceStuckAtReset));
  EXPECT_FALSE(r.fired(Rule::kSliceDeadLogic));
  EXPECT_TRUE(r.clean());
}

// ---------------------------------------------------------------------------
// Rule-registry guards
// ---------------------------------------------------------------------------

TEST(DrcRuleRegistry, RuleIdsAreUnique) {
  std::set<std::string> seen;
  for (const Rule rule : drc::allRules()) {
    const std::string id = drc::ruleName(rule);
    EXPECT_FALSE(id.empty());
    EXPECT_TRUE(seen.insert(id).second) << "duplicate rule id: " << id;
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(drc::Rule::kRuleCount_));
}

TEST(DrcRuleRegistry, EveryRuleIsDocumentedInDesignMd) {
  // Every stable rule id must appear in DESIGN.md's rule tables — an
  // undocumented rule is a rule users cannot act on.  Adding an enum entry
  // without documenting it fails here by construction.
  std::ifstream in(std::string(DFV_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(in.good()) << "DESIGN.md not found under " << DFV_SOURCE_DIR;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  for (const Rule rule : drc::allRules())
    EXPECT_NE(doc.find(drc::ruleName(rule)), std::string::npos)
        << "rule id '" << drc::ruleName(rule)
        << "' is not documented in DESIGN.md";
}

// ----- jsonEscape -----------------------------------------------------------

namespace {

/// Minimal JSON string-body decoder (the reverse of drc::jsonEscape): enough
/// to round-trip what the escaper may legally emit — short escapes, \uXXXX
/// for control characters and U+FFFD, and raw UTF-8 passthrough.
std::string jsonUnescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] != '\\') {
      out += s[i++];
      continue;
    }
    DFV_CHECK(i + 1 < s.size());
    const char e = s[i + 1];
    i += 2;
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        DFV_CHECK(i + 4 <= s.size());
        const unsigned cp =
            static_cast<unsigned>(std::stoul(s.substr(i, 4), nullptr, 16));
        i += 4;
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xc0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          out += static_cast<char>(0xe0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        break;
      }
      default: DFV_CHECK_MSG(false, "unexpected escape");
    }
  }
  return out;
}

}  // namespace

TEST(JsonEscape, RoundTripsEveryByteTheEscaperEmits) {
  // Control characters get their short forms (or \uXXXX), quotes and
  // backslashes are escaped, and the result decodes back to the input.
  const std::string all =
      "plain text \"quoted\" back\\slash \b\f\n\r\t and \x01\x02\x1f bytes";
  EXPECT_EQ(jsonUnescape(drc::jsonEscape(all)), all);
  // Every control byte individually.
  for (unsigned c = 1; c < 0x20; ++c) {
    const std::string one(1, static_cast<char>(c));
    const std::string esc = drc::jsonEscape(one);
    EXPECT_EQ(esc.substr(0, 1), "\\") << c;  // never emitted raw
    EXPECT_EQ(jsonUnescape(esc), one) << c;
  }
  // The short forms are preferred over \uXXXX (smaller, more readable).
  EXPECT_EQ(drc::jsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(drc::jsonEscape(std::string(1, '\x0b')), "\\u000b");
}

TEST(JsonEscape, ValidUtf8PassesThroughUnchanged) {
  // 2-, 3- and 4-byte sequences: µ (U+00B5), € (U+20AC), 𐍈 (U+10348).
  const std::string utf8 = "\xc2\xb5 \xe2\x82\xac \xf0\x90\x8d\x88";
  EXPECT_EQ(drc::jsonEscape(utf8), utf8);
}

TEST(JsonEscape, IllFormedUtf8BecomesReplacementCharacter) {
  // Diagnostics can quote raw design bytes; the escaper must still emit a
  // document JSON parsers accept.  Each bad byte becomes U+FFFD.
  const std::string fffd = "\\ufffd";
  EXPECT_EQ(drc::jsonEscape("\x80"), fffd);          // bare continuation
  EXPECT_EQ(drc::jsonEscape("\xc0\xaf"), fffd + fffd);  // overlong lead
  EXPECT_EQ(drc::jsonEscape("\xff"), fffd);          // never-valid byte
  EXPECT_EQ(drc::jsonEscape("\xe2\x82"), fffd + fffd);  // truncated 3-byte
  EXPECT_EQ(drc::jsonEscape("\xed\xa0\x80"),         // UTF-16 surrogate
            fffd + fffd + fffd);
  EXPECT_EQ(drc::jsonEscape("\xf4\x90\x80\x80"),     // above U+10FFFF
            fffd + fffd + fffd + fffd);
  // A bad byte embedded in good text corrupts only itself.
  EXPECT_EQ(drc::jsonEscape("ok\x80ok"), "ok" + fffd + "ok");
}

}  // namespace
}  // namespace dfv
