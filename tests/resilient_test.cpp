// Tests for core::ResilientRunner: retry-ladder escalation, exception
// isolation, graceful degradation to cosim, incremental-cache soundness for
// faulted/degraded blocks, and the site x policy exception-safety sweep
// driven by dfv::fault.

#include "core/resilient.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cosim/scoreboard.h"
#include "core/journal.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "designs/wrapcnt.h"
#include "drc/diagnostics.h"
#include "fault/fault.h"
#include "ir/expr.h"

namespace dfv::core {
namespace {

sec::SecResult verdictResult(sec::Verdict v) {
  sec::SecResult r;
  r.verdict = v;
  return r;
}

RetryPolicy attemptsPolicy(unsigned maxAttempts) {
  RetryPolicy p;
  p.maxAttempts = maxAttempts;
  return p;
}

// ----- Ladder mechanics (stub runners) -------------------------------------

TEST(RetryLadder, EscalatesBudgetsGeometrically) {
  RetryPolicy policy;
  policy.maxAttempts = 3;
  policy.budgetScale = 4.0;
  ResilientRunner runner("soc", policy);
  std::vector<sec::SecOptions> seen;
  sec::SecOptions base;
  base.bmcBudget.maxConflicts = 100;
  base.inductionBudget.maxPropagations = 1000;
  runner.addSecBlock("stubborn", 1, base, [&](const sec::SecOptions& o) {
    seen.push_back(o);
    return verdictResult(sec::Verdict::kInconclusive);
  });
  const PlanReport report = runner.runAll();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].bmcBudget.maxConflicts, 100u);
  EXPECT_EQ(seen[1].bmcBudget.maxConflicts, 400u);
  EXPECT_EQ(seen[2].bmcBudget.maxConflicts, 1600u);
  EXPECT_EQ(seen[1].inductionBudget.maxPropagations, 4000u);
  EXPECT_EQ(seen[2].inductionBudget.maxPropagations, 16000u);
  // Unlimited caps stay unlimited through the ladder.
  EXPECT_EQ(seen[2].bmcBudget.maxPropagations, 0u);
  ASSERT_EQ(report.blocks.size(), 1u);
  const BlockResult& b = report.blocks[0];
  EXPECT_TRUE(b.inconclusive);
  EXPECT_EQ(b.attempts, 3u);
  ASSERT_EQ(b.attemptLog.size(), 3u);
  EXPECT_EQ(b.attemptLog[0].rung, 0u);
  EXPECT_EQ(b.attemptLog[2].rung, 2u);
  EXPECT_EQ(b.attemptLog[2].maxConflicts, 1600u);
  EXPECT_EQ(report.inconclusive, 1u);
}

TEST(RetryLadder, ExplicitRungsApplyTogglesCumulatively) {
  RetryPolicy policy;
  policy.maxAttempts = 3;
  RetryRung r1;
  r1.budgetScale = 2.0;
  r1.fraig = false;
  RetryRung r2;
  r2.budgetScale = 3.0;
  r2.invariants = false;
  policy.rungs = {r1, r2};
  ResilientRunner runner("soc", policy);
  std::vector<sec::SecOptions> seen;
  sec::SecOptions base;
  base.bmcBudget.maxConflicts = 100;
  runner.addSecBlock("stubborn", 1, base, [&](const sec::SecOptions& o) {
    seen.push_back(o);
    return verdictResult(sec::Verdict::kInconclusive);
  });
  runner.runAll();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[0].fraig);
  EXPECT_TRUE(seen[0].invariants);
  EXPECT_FALSE(seen[1].fraig);  // rung 1 turned fraig off
  EXPECT_TRUE(seen[1].invariants);
  EXPECT_EQ(seen[1].bmcBudget.maxConflicts, 200u);
  EXPECT_FALSE(seen[2].fraig);       // toggles accumulate down the ladder
  EXPECT_FALSE(seen[2].invariants);  // rung 2 turned invariants off
  EXPECT_EQ(seen[2].bmcBudget.maxConflicts, 600u);  // 100 * 2 * 3
}

TEST(RetryLadder, StopsAtFirstConclusiveVerdict) {
  ResilientRunner runner("soc");
  int calls = 0;
  runner.addSecBlock("block", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++calls;
                       return verdictResult(calls < 2
                                                ? sec::Verdict::kInconclusive
                                                : sec::Verdict::kProvenEquivalent);
                     });
  const PlanReport report = runner.runAll();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(report.blocks[0].attempts, 2u);
  EXPECT_TRUE(report.blocks[0].passed);
  EXPECT_FALSE(report.blocks[0].degraded);
  EXPECT_EQ(report.verified, 1u);
}

TEST(RetryLadder, NotEquivalentFailsWithoutRetry) {
  ResilientRunner runner("soc");
  int calls = 0;
  runner.addSecBlock("buggy", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++calls;
                       return verdictResult(sec::Verdict::kNotEquivalent);
                     });
  runner.setCosimFallback("buggy", [](std::uint64_t) {
    return ResilientRunner::CosimOutcome{true, "should never run"};
  });
  const PlanReport report = runner.runAll();
  EXPECT_EQ(calls, 1);  // a real counterexample does not earn a retry
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.blocks[0].degraded);  // and no fallback either
}

TEST(RetryLadder, RetriesInductionCutoffToUpgradeVerdict) {
  ResilientRunner runner("soc");
  int calls = 0;
  runner.addSecBlock("fir", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++calls;
                       sec::SecResult r;
                       if (calls < 3) {
                         r.verdict = sec::Verdict::kBoundedEquivalent;
                         r.stats.induction.budgetExhausted = true;
                       } else {
                         r.verdict = sec::Verdict::kProvenEquivalent;
                       }
                       return r;
                     });
  const PlanReport report = runner.runAll();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.blocks[0].attempts, 3u);
  EXPECT_EQ(report.blocks[0].detail, "proven-equivalent");
  EXPECT_TRUE(report.blocks[0].passed);
}

TEST(RetryLadder, InductionCutoffKeepsSoundPassWhenLadderTopsOut) {
  RetryPolicy policy;
  policy.maxAttempts = 2;
  ResilientRunner runner("soc", policy);
  runner.addSecBlock("fir", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       sec::SecResult r;
                       r.verdict = sec::Verdict::kBoundedEquivalent;
                       r.stats.induction.budgetExhausted = true;
                       return r;
                     });
  const PlanReport report = runner.runAll();
  EXPECT_EQ(report.blocks[0].attempts, 2u);
  EXPECT_TRUE(report.blocks[0].passed);  // bounded is sound — still a pass
  EXPECT_FALSE(report.blocks[0].degraded);
  EXPECT_EQ(report.verified, 1u);
}

TEST(RetryLadder, AttemptRowsRecordDisjointPerAttemptTelemetry) {
  // Each ladder rung runs a fresh engine, so AttemptRecord telemetry must
  // be THAT attempt's stats alone — a regression here (rows accumulating
  // 100, 300, 600 instead of 100, 200, 300) silently inflates every
  // escalation report and breaks the replay fingerprint of the final row.
  ResilientRunner runner("soc", attemptsPolicy(3));
  unsigned call = 0;
  runner.addSecBlock("stubborn", 1, sec::SecOptions{},
                     [&call](const sec::SecOptions&) {
                       ++call;
                       sec::SecResult r;
                       r.verdict = sec::Verdict::kInconclusive;
                       r.stats.satConflicts = 100 * call;
                       r.stats.satDecisions = 10 * call;
                       r.stats.aigNodes = 7 * call;
                       sec::PhaseStats bmc;
                       bmc.propagations = 1000 * call;
                       r.stats.bmcTransactions.push_back(bmc);
                       r.stats.induction.propagations = 5 * call;
                       return r;
                     });
  const PlanReport report = runner.runAll();
  ASSERT_EQ(report.blocks.size(), 1u);
  const std::vector<AttemptRecord>& log = report.blocks[0].attemptLog;
  ASSERT_EQ(log.size(), 3u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].rung, i) << i;
    EXPECT_EQ(log[i].counters.at("sat_conflicts"), 100u * (i + 1)) << i;
    EXPECT_EQ(log[i].counters.at("sat_decisions"), 10u * (i + 1)) << i;
    // sat_propagations sums this attempt's BMC phases plus induction.
    EXPECT_EQ(log[i].counters.at("sat_propagations"), 1005u * (i + 1)) << i;
    EXPECT_EQ(log[i].counters.at("aig_nodes"), 7u * (i + 1)) << i;
  }
}

// ----- Exception isolation --------------------------------------------------

TEST(Isolation, ThrowingRunnerBecomesStructuredFaultAndPlanContinues) {
  ResilientRunner runner("soc");
  runner.addSecBlock("crashy", 1, sec::SecOptions{},
                     [](const sec::SecOptions&) -> sec::SecResult {
                       throw CheckError("synthetic crash");
                     });
  runner.addSecBlock("healthy", 2, sec::SecOptions{},
                     [](const sec::SecOptions&) {
                       return verdictResult(sec::Verdict::kProvenEquivalent);
                     });
  PlanReport report;
  EXPECT_NO_THROW(report = runner.runAll());
  ASSERT_EQ(report.blocks.size(), 2u);
  EXPECT_TRUE(report.blocks[0].faulted);
  EXPECT_FALSE(report.blocks[0].passed);
  EXPECT_EQ(report.blocks[0].attempts, 1u);  // a crash aborts the ladder
  EXPECT_NE(report.blocks[0].detail.find("synthetic crash"), std::string::npos);
  EXPECT_TRUE(report.blocks[1].passed);
  EXPECT_EQ(report.faulted, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.verified, 1u);
}

TEST(Isolation, FaultedBlocksAreNeverTreatedAsCleanIncrementally) {
  ResilientRunner runner("soc");
  int calls = 0;
  bool crash = true;
  runner.addSecBlock("flaky", 7, sec::SecOptions{},
                     [&](const sec::SecOptions&) -> sec::SecResult {
                       ++calls;
                       if (crash) throw CheckError("transient crash");
                       return verdictResult(sec::Verdict::kProvenEquivalent);
                     });
  runner.runIncremental();
  EXPECT_EQ(calls, 1);
  // Same digest — but a faulted run must not be cached as clean.
  crash = false;
  const PlanReport r2 = runner.runIncremental();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r2.verified, 1u);
  // Now it is clean: the third incremental run skips it.
  const PlanReport r3 = runner.runIncremental();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r3.skipped, 1u);
}

// ----- Graceful degradation -------------------------------------------------

TEST(Degradation, InconclusiveLadderFallsBackToCosim) {
  RetryPolicy policy;
  policy.maxAttempts = 2;
  policy.cosimSeed = 0xfeed;
  ResilientRunner runner("soc", policy);
  runner.addSecBlock("stubborn", 1, sec::SecOptions{},
                     [](const sec::SecOptions&) {
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  std::uint64_t seenSeed = 0;
  runner.setCosimFallback("stubborn", [&](std::uint64_t seed) {
    seenSeed = seed;
    return ResilientRunner::CosimOutcome{true, "128 samples matched"};
  });
  const PlanReport report = runner.runAll();
  const BlockResult& b = report.blocks[0];
  EXPECT_EQ(seenSeed, 0xfeedu);
  EXPECT_TRUE(b.passed);
  EXPECT_TRUE(b.degraded);
  EXPECT_FALSE(b.inconclusive);
  EXPECT_EQ(b.attempts, 3u);  // 2 SEC rungs + 1 cosim fallback
  ASSERT_EQ(b.attemptLog.size(), 3u);
  EXPECT_EQ(b.attemptLog.back().outcome, "cosim-pass");
  EXPECT_EQ(report.degraded, 1u);
  EXPECT_EQ(report.verified, 1u);
  // The degraded flag must survive into the JSON CI artifact.
  const std::string json = report.json("soc");
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":3"), std::string::npos);
}

TEST(Degradation, DegradedPassesAreNeverCached) {
  ResilientRunner runner("soc", attemptsPolicy(1));
  int secCalls = 0, cosimCalls = 0;
  runner.addSecBlock("stubborn", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++secCalls;
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  runner.setCosimFallback("stubborn", [&](std::uint64_t) {
    ++cosimCalls;
    return ResilientRunner::CosimOutcome{true, "ok"};
  });
  runner.runIncremental();
  EXPECT_EQ(secCalls, 1);
  EXPECT_EQ(cosimCalls, 1);
  // Unchanged digest, but degraded evidence is too weak to skip on.
  runner.runIncremental();
  EXPECT_EQ(secCalls, 2);
  EXPECT_EQ(cosimCalls, 2);
}

TEST(Degradation, FailingFallbackFailsTheBlock) {
  ResilientRunner runner("soc", attemptsPolicy(1));
  runner.addSecBlock("stubborn", 1, sec::SecOptions{},
                     [](const sec::SecOptions&) {
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  runner.setCosimFallback("stubborn", [](std::uint64_t) {
    return ResilientRunner::CosimOutcome{false, "sample 17 mismatched"};
  });
  const PlanReport report = runner.runAll();
  EXPECT_FALSE(report.blocks[0].passed);
  EXPECT_TRUE(report.blocks[0].degraded);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.degraded, 1u);
}

// ----- DRC gate -------------------------------------------------------------

TEST(DrcGate, RunsOnceAcrossTheWholeLadder) {
  ResilientRunner runner("soc", attemptsPolicy(3));
  int secCalls = 0, drcCalls = 0;
  runner.addSecBlock("stubborn", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++secCalls;
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  runner.setBlockDrc("stubborn", [&] {
    ++drcCalls;
    return drc::DrcReport{};
  });
  const PlanReport report = runner.runAll();
  EXPECT_EQ(secCalls, 3);  // every rung ran...
  EXPECT_EQ(drcCalls, 1);  // ...behind one DRC evaluation
  EXPECT_EQ(report.blocks[0].attempts, 3u);
  ASSERT_TRUE(report.blocks[0].drc.has_value());
}

TEST(DrcGate, BlockedSecBlockNeverClimbsOrDegrades) {
  ResilientRunner runner("soc", attemptsPolicy(3));
  int secCalls = 0, cosimCalls = 0;
  runner.addSecBlock("dirty", 1, sec::SecOptions{},
                     [&](const sec::SecOptions&) {
                       ++secCalls;
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  runner.setCosimFallback("dirty", [&](std::uint64_t) {
    ++cosimCalls;
    return ResilientRunner::CosimOutcome{true, "should never run"};
  });
  runner.setBlockDrc("dirty", [] {
    drc::DrcReport r;
    r.add(drc::Rule::kDeadCell, drc::Severity::kWarning, drc::Layer::kRtl,
          "dirty/cell#0", "dead");
    return r;
  });
  runner.setDrcPolicy(DrcPolicy::kStrict);
  const PlanReport report = runner.runAll();
  const BlockResult& b = report.blocks[0];
  EXPECT_EQ(secCalls, 0);
  EXPECT_EQ(cosimCalls, 0);
  EXPECT_TRUE(b.blockedByDrc);
  EXPECT_FALSE(b.degraded);
  EXPECT_FALSE(b.passed);
  EXPECT_EQ(b.attempts, 0u);
  EXPECT_TRUE(b.attemptLog.empty());
  EXPECT_EQ(report.blocked, 1u);
  EXPECT_EQ(report.degraded, 0u);
}

// ----- Real designs ---------------------------------------------------------

TEST(RealDesigns, StarvedGcdBreakIfDegradesToRandomCosim) {
  ir::Context ctx;
  designs::GcdSecSetup setup = designs::makeGcdBreakIfSecProblem(ctx);
  // Without fraig and with a starvation propagation cap this shape cannot
  // finish BMC (that is the DRC's sec-guard-accumulation story); the
  // resilient runner must still produce a useful, honest answer.
  sec::SecOptions base;
  base.fraig = false;
  base.bmcBudget.maxPropagations = 50000;
  base.inductionBudget.maxPropagations = 50000;
  RetryPolicy policy;
  policy.maxAttempts = 2;
  policy.budgetScale = 2.0;
  ResilientRunner runner("gcd", policy);
  runner.addSecBlock("gcd_breakif", 1, base, [&](const sec::SecOptions& o) {
    return sec::checkEquivalence(*setup.problem, o);
  });
  runner.setCosimFallback("gcd_breakif",
                          makeRandomCosimFallback(*setup.problem, 8));
  const PlanReport report = runner.runAll();
  const BlockResult& b = report.blocks[0];
  EXPECT_TRUE(b.passed);  // the models *are* equivalent — cosim agrees
  EXPECT_TRUE(b.degraded);
  EXPECT_EQ(b.attempts, 3u);
  EXPECT_EQ(b.attemptLog[0].outcome, "inconclusive");
  EXPECT_EQ(b.attemptLog[1].outcome, "inconclusive");
  EXPECT_EQ(b.attemptLog.back().outcome, "cosim-pass");
  EXPECT_NE(b.detail.find("degraded to cosim"), std::string::npos);
  const std::string json = report.json("gcd");
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
}

TEST(RealDesigns, InvariantRungRescuesWrapcntFromBoundedToProven) {
  ir::Context ctx;
  designs::WrapcntSecSetup setup = designs::makeWrapcntSecProblem(ctx);
  // Base attempt: strengthening off AND a one-propagation induction cap, so
  // attempt 1 lands on kBoundedEquivalent with induction.budgetExhausted —
  // the retryInductionCutoff trigger.  The rung restores real budget and
  // flips invariants on; attempt 2 must certify the wrap bound and close
  // the induction, upgrading the block without ever touching cosim.
  sec::SecOptions base;
  base.invariants = false;
  base.boundTransactions = 3;
  base.inductionBudget.maxPropagations = 1;
  RetryPolicy policy;
  policy.maxAttempts = 2;
  RetryRung rescue;
  rescue.budgetScale = 1e6;  // lift the starvation cap out of the way
  rescue.invariants = true;
  policy.rungs = {rescue};
  ResilientRunner runner("wrapcnt", policy);
  runner.addSecBlock("wrapcnt", 1, base, [&](const sec::SecOptions& o) {
    return sec::checkEquivalence(*setup.problem, o);
  });
  const PlanReport report = runner.runAll();
  const BlockResult& b = report.blocks[0];
  EXPECT_TRUE(b.passed);
  EXPECT_FALSE(b.degraded);
  EXPECT_EQ(b.attempts, 2u);
  ASSERT_EQ(b.attemptLog.size(), 2u);
  EXPECT_EQ(b.attemptLog[0].outcome, "bounded-equivalent");
  EXPECT_EQ(b.attemptLog[1].outcome, "proven-equivalent");
  EXPECT_EQ(b.attemptLog[0].counters.at("inv_certified"), 0u);
  EXPECT_EQ(b.attemptLog[0].counters.at("inv_candidates"), 0u);
  EXPECT_GT(b.attemptLog[1].counters.at("inv_certified"), 0u);
  EXPECT_EQ(b.counters, b.attemptLog[1].counters);
  const std::string json = report.json("wrapcnt");
  EXPECT_NE(json.find("\"inv_certified\":"), std::string::npos);
  EXPECT_NE(json.find("\"inv_candidates\":"), std::string::npos);
}

TEST(RealDesigns, RandomCosimFallbackFindsTheNarrowAccumulator) {
  ir::Context ctx;
  designs::FirSecSetup setup =
      designs::makeFirSecProblem(ctx, designs::FirBug::kNarrowAccumulator);
  auto fallback = makeRandomCosimFallback(*setup.problem, 64);
  const auto outcome = fallback(1);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.detail.find("mismatch"), std::string::npos);
  // Determinism: the same seed reproduces the same mismatch report.
  EXPECT_EQ(fallback(1).detail, outcome.detail);
}

TEST(RealDesigns, RandomCosimFallbackPassesCleanFir) {
  ir::Context ctx;
  designs::FirSecSetup setup =
      designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
  const auto outcome = makeRandomCosimFallback(*setup.problem, 64)(1);
  EXPECT_TRUE(outcome.passed) << outcome.detail;
}

TEST(RealDesigns, RandomCosimFallbackOutcomeIsPinnedPerSeed) {
  // The fallback's random draws (transaction variables, rejection-sampled
  // against the constraints, then each free input in side, cycle and input
  // order) decide where a bug shows.  These reports pin that order: any
  // change to it moves the failing transaction or the values.
  ir::Context ctx;
  designs::FirSecSetup setup =
      designs::makeFirSecProblem(ctx, designs::FirBug::kNarrowAccumulator);
  EXPECT_EQ(makeRandomCosimFallback(*setup.problem, 64)(7).detail,
            "cosim fallback: mismatch at transaction 11: out=18'h00ba5 vs "
            "out_data=18'h3fba5 (seed 7)");
  for (ir::NodeRef v : setup.problem->txnVars())
    setup.problem->addConstraint(
        ctx.ult(v, ctx.constantUint(v->type().width, 0xc0)));
  EXPECT_EQ(makeRandomCosimFallback(*setup.problem, 64)(1).detail,
            "cosim fallback: mismatch at transaction 3: out=18'h00ae2 vs "
            "out_data=18'h3fae2 (seed 1)");
}

// ----- Fault-injection sweeps ----------------------------------------------

/// A plan with one real (tiny budgeted) SEC block with a stub fallback and
/// one scoreboard-backed cosim block — every fault site is reachable.
struct SweepPlan {
  std::unique_ptr<ir::Context> ctx;
  designs::GcdSecSetup gcd;
  ResilientRunner runner{"sweep", attemptsPolicy(2)};

  SweepPlan() {
    ctx = std::make_unique<ir::Context>();
    gcd = designs::makeGcdSecProblem(*ctx);
    sec::SecOptions base;
    base.bmcBudget.maxConflicts = 100000;
    base.inductionBudget.maxConflicts = 100000;
    runner.addSecBlock("gcd", 1, base, [this](const sec::SecOptions& o) {
      return sec::checkEquivalence(*gcd.problem, o);
    });
    runner.setCosimFallback("gcd", [](std::uint64_t) {
      return ResilientRunner::CosimOutcome{true, "fallback ok"};
    });
    runner.addCosimBlock("stream", 2, [](std::uint64_t) {
      cosim::CycleExactScoreboard sb;
      for (std::uint64_t c = 0; c < 4; ++c)
        sb.expect(c, bv::BitVector::fromUint(8, c * 3));
      for (std::uint64_t c = 0; c < 4; ++c)
        sb.observe(c, bv::BitVector::fromUint(8, c * 3));
      const auto stats = sb.finish();
      return ResilientRunner::CosimOutcome{
          stats.clean(), stats.clean() ? "4 samples matched" : "mismatch"};
    });
  }
};

std::string sweepTempBase() {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << ::testing::TempDir() << "dfv_resilient_sweep_" << ::getpid() << "_"
     << counter++;
  return os.str();
}

TEST(FaultSweep, EverySiteAndPolicyYieldsAStructuredResult) {
  using fault::Policy;
  using fault::Site;
  const Site sites[] = {Site::kSolverSolve,   Site::kSecBmcPhase,
                        Site::kSecInductionPhase, Site::kCosimSample,
                        Site::kJournalAppend, Site::kJournalFsync,
                        Site::kJournalCommit};
  const Policy policies[] = {Policy::kThrowCheckError, Policy::kSpuriousUnknown,
                             Policy::kExhaustBudget, Policy::kCorruptSample,
                             Policy::kTornWrite};
  for (Site site : sites) {
    for (Policy policy : policies) {
      for (bool persistent : {false, true}) {
        SCOPED_TRACE(std::string(fault::siteName(site)) + " / " +
                     fault::policyName(policy) +
                     (persistent ? " persistent" : " transient"));
        SweepPlan plan;
        fault::ScopedInjector scoped(7);
        scoped.injector().arm(site, policy, 1, persistent ? 1 : 0);
        // The journal is created inside the armed window so the journal.*
        // sites are reachable.  A commit fault means the journal cannot
        // exist — the documented production reaction is to run unjournaled.
        std::unique_ptr<Journal> journal;
        try {
          journal = std::make_unique<Journal>(sweepTempBase(), "sweep");
          plan.runner.setJournal(journal.get());
        } catch (const CheckError&) {
        }
        // Construction-time firings (the commit site) precede any block.
        const std::uint64_t preRun = scoped.injector().totalInjections();
        PlanReport report;
        EXPECT_NO_THROW(report = plan.runner.runAll());
        ASSERT_EQ(report.blocks.size(), 2u);
        for (const BlockResult& b : report.blocks) {
          EXPECT_FALSE(b.detail.empty());
          if (b.faulted) {
            EXPECT_FALSE(b.passed);
            EXPECT_NE(b.detail.find("injected fault"), std::string::npos);
          }
        }
        // Every injection that fired during the run is attributed to some
        // block — including firings at the journal sites.
        std::uint64_t attributed = 0;
        for (const BlockResult& b : report.blocks)
          attributed += b.faultInjections;
        EXPECT_EQ(attributed, scoped.injector().totalInjections() - preRun);
        // The plan always tallies both blocks, one way or another — a
        // journal fault may cost durability, never a verdict.
        EXPECT_EQ(report.verified + report.failed + report.inconclusive, 2u);
      }
    }
  }
}

TEST(FaultSweep, PersistentSolverFaultDegradesGcdToCosim) {
  SweepPlan plan;
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kSolverSolve,
                        fault::Policy::kSpuriousUnknown, 1, 1);
  const PlanReport report = plan.runner.runAll();
  const BlockResult& gcd = report.blocks[0];
  // Every solve reports unknown -> every rung inconclusive -> fallback.
  EXPECT_TRUE(gcd.degraded);
  EXPECT_TRUE(gcd.passed);
  EXPECT_GT(gcd.faultInjections, 0u);
  EXPECT_TRUE(report.blocks[1].passed);  // cosim block untouched
}

TEST(FaultSweep, DisabledInjectorGivesIdenticalReports) {
  auto run = [](bool withInjector) {
    SweepPlan plan;
    std::unique_ptr<fault::ScopedInjector> scoped;
    if (withInjector)
      scoped = std::make_unique<fault::ScopedInjector>(1234);  // unarmed
    return plan.runner.runAll();
  };
  const PlanReport bare = run(false);
  const PlanReport unarmed = run(true);
  ASSERT_EQ(bare.blocks.size(), unarmed.blocks.size());
  for (std::size_t i = 0; i < bare.blocks.size(); ++i) {
    EXPECT_EQ(bare.blocks[i].passed, unarmed.blocks[i].passed);
    EXPECT_EQ(bare.blocks[i].detail, unarmed.blocks[i].detail);
    EXPECT_EQ(bare.blocks[i].attempts, unarmed.blocks[i].attempts);
    EXPECT_EQ(bare.blocks[i].degraded, unarmed.blocks[i].degraded);
    EXPECT_EQ(bare.blocks[i].faulted, unarmed.blocks[i].faulted);
    EXPECT_EQ(bare.blocks[i].faultInjections, 0u);
    EXPECT_EQ(unarmed.blocks[i].faultInjections, 0u);
  }
  EXPECT_EQ(bare.verified, unarmed.verified);
  EXPECT_EQ(bare.failed, unarmed.failed);
  EXPECT_EQ(bare.degraded, unarmed.degraded);
}

}  // namespace
}  // namespace dfv::core
