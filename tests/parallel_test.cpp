// Tests for core::ParallelExecutor and the plan runner on it: executor
// mechanics (every index once, exceptions after the drain), the reported
// width, serial/parallel report parity down to each block's and attempt's
// counters, fault isolation and fault-injection determinism per block, and
// incremental cache safety under the executor.

#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/resilient.h"
#include "drc/diagnostics.h"
#include "fault/fault.h"
#include "ir/expr.h"
#include "sec/engine.h"

namespace dfv::core {
namespace {

// ----- Executor mechanics ---------------------------------------------------

TEST(ParallelExecutor, ForEachRunsEveryIndexOnce) {
  ParallelExecutor exec(4);
  EXPECT_EQ(exec.workers(), 4u);
  std::vector<std::atomic<int>> hits(100);
  // Four spawned threads plus the caller ran the claim loop.
  EXPECT_EQ(exec.forEach(hits.size(), [&hits](std::size_t i) { ++hits[i]; }),
            5u);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
  // No thread is spawned without an index for it: one index runs on the
  // caller alone, and zero indices call nothing.
  EXPECT_EQ(exec.forEach(1, [&hits](std::size_t i) { ++hits[i]; }), 1u);
  EXPECT_EQ(hits[0].load(), 2);
  EXPECT_EQ(exec.forEach(0, [](std::size_t) { FAIL(); }), 1u);
}

TEST(ParallelExecutor, SuccessiveCallsBothRun) {
  ParallelExecutor exec(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 2; ++round)
    exec.forEach(10, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
}

TEST(ParallelExecutor, ThrowingIndexIsRethrownAfterEveryIndexRan) {
  ParallelExecutor exec(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(exec.forEach(8,
                            [&ran](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 3)
                                throw std::runtime_error("index 3 failed");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // every index still ran
  // The executor itself is unharmed.
  std::atomic<int> again{0};
  exec.forEach(4, [&again](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

// ----- SEC fixtures ---------------------------------------------------------

/// Stateful pair proven equivalent only through induction with a coupling
/// invariant (the checksum fixture from sec_test.cpp): both BMC and
/// induction solves run, so every counter family has work to report.
struct ChecksumFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<sec::SecProblem> problem;

  ChecksumFixture() {
    ir::NodeRef sx = slm.addInput("s.x", 8);
    ir::NodeRef scsum = slm.addState("s.csum", 8, 0);
    slm.setNext(scsum, ctx.add(scsum, sx));
    slm.addOutput("csum", ctx.add(scsum, sx));

    ir::NodeRef rx = rtl.addInput("r.x", 8);
    ir::NodeRef rcsum = rtl.addState("r.csum", 8, 0);
    rtl.setNext(rcsum, ctx.add(rcsum, ctx.bitXor(rx, ctx.zero(8))));
    rtl.addOutput("csum", ctx.add(rcsum, rx));

    problem = std::make_unique<sec::SecProblem>(ctx, slm, 1, rtl, 1);
    ir::NodeRef v = problem->declareTxnVar("x", 8);
    problem->bindInput(sec::Side::kSlm, "s.x", 0, v);
    problem->bindInput(sec::Side::kRtl, "r.x", 0, v);
    problem->checkOutputs("csum", 0, "csum", 0);
    problem->addCouplingInvariant(ctx.eq(slm.findState("s.csum")->current,
                                         rtl.findState("r.csum")->current));
  }
};

/// Sides agree on transaction 0 and diverge from transaction 1 on — the
/// later-depth counterexample fixture (sec_test.cpp), used as the failing
/// block of the mixed plan below.
struct LateCexFixture {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<sec::SecProblem> problem;

  LateCexFixture() {
    ir::NodeRef sx = slm.addInput("s.x", 4);
    ir::NodeRef scnt = slm.addState("s.cnt", 4, 0);
    slm.setNext(scnt, ctx.add(scnt, ctx.one(4)));
    slm.addOutput("y", ctx.mul(scnt, sx));

    ir::NodeRef rx = rtl.addInput("r.x", 4);
    ir::NodeRef rcnt = rtl.addState("r.cnt", 4, 0);
    rtl.setNext(rcnt, ctx.add(rcnt, ctx.one(4)));
    rtl.addOutput("y", ctx.mul(rcnt, ctx.add(rx, rcnt)));

    problem = std::make_unique<sec::SecProblem>(ctx, slm, 1, rtl, 1);
    ir::NodeRef v = problem->declareTxnVar("x", 4);
    problem->bindInput(sec::Side::kSlm, "s.x", 0, v);
    problem->bindInput(sec::Side::kRtl, "r.x", 0, v);
    problem->checkOutputs("y", 0, "y", 0);
  }
};

// ----- ResilientRunner on the executor --------------------------------------

sec::SecResult verdictResult(sec::Verdict v) {
  sec::SecResult r;
  r.verdict = v;
  return r;
}

/// A plan mixing a proven SEC block, a failing SEC block, an inconclusive
/// one, and a cosim block — enough shapes to compare serial and parallel
/// reports field by field.
void populateMixedPlan(ResilientRunner& runner, ChecksumFixture& good,
                       LateCexFixture& bad) {
  sec::SecOptions opts;
  opts.boundTransactions = 3;
  runner.addSecBlock("good", 1, opts, [&good](const sec::SecOptions& o) {
    return sec::checkEquivalence(*good.problem, o);
  });
  runner.addSecBlock("bad", 2, opts, [&bad](const sec::SecOptions& o) {
    return sec::checkEquivalence(*bad.problem, o);
  });
  runner.addSecBlock("stubborn", 3, sec::SecOptions{},
                     [](const sec::SecOptions&) {
                       return verdictResult(sec::Verdict::kInconclusive);
                     });
  runner.addCosimBlock("cosim", 4, [](std::uint64_t seed) {
    return ResilientRunner::CosimOutcome{true,
                                         "seed " + std::to_string(seed)};
  });
}

TEST(ParallelRunner, ReportMatchesSerialRunFieldByField) {
  ChecksumFixture good;
  LateCexFixture bad;
  ResilientRunner serial("plan");
  ResilientRunner parallel("plan");
  populateMixedPlan(serial, good, bad);
  populateMixedPlan(parallel, good, bad);
  ParallelExecutor exec(4);
  parallel.setExecutor(&exec);

  const PlanReport sr = serial.runAll();
  const PlanReport pr = parallel.runAll();
  EXPECT_EQ(sr.workers, 1u);
  EXPECT_EQ(pr.workers, 4u);
  EXPECT_EQ(pr.verified, sr.verified);
  EXPECT_EQ(pr.failed, sr.failed);
  EXPECT_EQ(pr.inconclusive, sr.inconclusive);
  ASSERT_EQ(pr.blocks.size(), sr.blocks.size());
  for (std::size_t i = 0; i < sr.blocks.size(); ++i) {
    const BlockResult& s = sr.blocks[i];
    const BlockResult& p = pr.blocks[i];
    EXPECT_EQ(p.block, s.block) << i;  // order kept
    EXPECT_EQ(p.passed, s.passed) << i;
    EXPECT_EQ(p.inconclusive, s.inconclusive) << i;
    EXPECT_EQ(p.faulted, s.faulted) << i;
    EXPECT_EQ(p.attempts, s.attempts) << i;
    EXPECT_EQ(p.detail, s.detail) << i;
    // One check runs on one thread, so a block's counters are the same on
    // any worker as in the serial run, attempt row by attempt row.
    EXPECT_EQ(p.counters, s.counters) << i;
    ASSERT_EQ(p.attemptLog.size(), s.attemptLog.size()) << i;
    for (std::size_t j = 0; j < s.attemptLog.size(); ++j) {
      EXPECT_EQ(p.attemptLog[j].outcome, s.attemptLog[j].outcome) << i << j;
      EXPECT_EQ(p.attemptLog[j].counters, s.attemptLog[j].counters) << i << j;
    }
  }
  // The real checks did solver and sweep work, and it reaches the report.
  EXPECT_FALSE(sr.blocks[0].counters.empty());
  EXPECT_FALSE(sr.blocks[1].attemptLog[0].counters.empty());
  const std::string json = pr.json("plan");
  EXPECT_NE(json.find("\"workers\":4"), std::string::npos);
  EXPECT_NE(json.find("\"fraig_sat_calls\":"), std::string::npos);
}

TEST(ParallelRunner, RunnerFaultsAreIsolated) {
  RetryPolicy policy;
  policy.maxAttempts = 1;
  ResilientRunner runner("plan", policy);
  runner.addSecBlock("crashy", 1, sec::SecOptions{},
                     [](const sec::SecOptions&) -> sec::SecResult {
                       throw CheckError("injected runner crash");
                     });
  ParallelExecutor exec(2);
  runner.setExecutor(&exec);
  const PlanReport report = runner.runAll();
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_TRUE(report.blocks[0].faulted);
  EXPECT_EQ(report.faulted, 1u);
  ASSERT_EQ(report.blocks[0].attemptLog.size(), 1u);
  EXPECT_TRUE(report.blocks[0].attemptLog[0].faulted);
}

// ----- Incremental cache safety under the executor (satellite) --------------

TEST(ParallelRunner, CacheServesOnlyCleanFullStrengthPasses) {
  ChecksumFixture good;
  RetryPolicy policy;
  policy.maxAttempts = 1;
  ResilientRunner runner("plan", policy);
  sec::SecOptions opts;
  opts.boundTransactions = 2;
  int goodRuns = 0, faultyRuns = 0, stubbornRuns = 0, degradedRuns = 0;
  runner.addSecBlock("good", 1, opts, [&](const sec::SecOptions& o) {
    ++goodRuns;
    return sec::checkEquivalence(*good.problem, o);
  });
  runner.addSecBlock("faulty", 2, opts,
                     [&](const sec::SecOptions&) -> sec::SecResult {
                       ++faultyRuns;
                       throw CheckError("boom");
                     });
  runner.addSecBlock("stubborn", 3, opts, [&](const sec::SecOptions&) {
    ++stubbornRuns;
    return verdictResult(sec::Verdict::kInconclusive);
  });
  runner.addSecBlock("degraded", 4, opts, [&](const sec::SecOptions&) {
    ++degradedRuns;
    return verdictResult(sec::Verdict::kInconclusive);
  });
  runner.setCosimFallback("degraded", [](std::uint64_t) {
    return ResilientRunner::CosimOutcome{true, "cosim says ok"};
  });
  ParallelExecutor exec(4);
  runner.setExecutor(&exec);

  const PlanReport first = runner.runAll();
  EXPECT_EQ(first.degraded, 1u);
  EXPECT_EQ(first.faulted, 1u);
  const PlanReport second = runner.runIncremental();
  ASSERT_EQ(second.blocks.size(), 4u);
  // Only the clean full-strength pass is served from the digest cache.
  EXPECT_TRUE(second.blocks[0].skippedUnchanged);
  EXPECT_EQ(second.blocks[0].attempts, 0u);
  EXPECT_FALSE(second.blocks[1].skippedUnchanged);
  EXPECT_FALSE(second.blocks[2].skippedUnchanged);
  EXPECT_FALSE(second.blocks[3].skippedUnchanged);
  EXPECT_EQ(goodRuns, 1);      // cached after the first clean pass
  EXPECT_EQ(faultyRuns, 2);    // faulted: never cached
  EXPECT_EQ(stubbornRuns, 2);  // inconclusive: never cached
  EXPECT_EQ(degradedRuns, 2);  // degraded pass: never cached
  EXPECT_EQ(second.skipped, 1u);
}

// ----- Width: the threads that ran blocks -----------------------------------

TEST(ParallelRunner, ReportedWorkersAreTheThreadsThatRanBlocks) {
  // Each block raises the in-flight count and waits (2 s at most, so the
  // test cannot hang) for a block to see three at once: only the two
  // spawned threads and the calling thread together can get there.
  ParallelExecutor exec(2);
  ResilientRunner runner("wide", {.maxAttempts = 1});
  std::atomic<unsigned> inFlight{0}, peak{0};
  std::atomic<bool> released{false};
  for (const char* name : {"w0", "w1", "w2"}) {
    runner.addSecBlock(name, 1, sec::SecOptions{}, [&](const sec::SecOptions&) {
      const unsigned now = ++inFlight;
      unsigned seen = peak.load();
      while (seen < now && !peak.compare_exchange_weak(seen, now)) {
      }
      if (now == 3) released = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!released && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      --inFlight;
      return verdictResult(sec::Verdict::kProvenEquivalent);
    });
  }
  runner.setExecutor(&exec);
  const PlanReport report = runner.runAll();
  EXPECT_EQ(peak.load(), 3u);
  EXPECT_EQ(report.workers, 3u);
  EXPECT_EQ(report.verified, 3u);

  ResilientRunner single("narrow", {.maxAttempts = 1});
  single.addSecBlock("only", 1, sec::SecOptions{}, [](const sec::SecOptions&) {
    return verdictResult(sec::Verdict::kProvenEquivalent);
  });
  single.setExecutor(&exec);
  EXPECT_EQ(single.runAll().workers, 1u);
}

// ----- DRC gate on the executor ----------------------------------------------

TEST(ParallelRunner, DrcGateBlocksDirtyBlockWhileCleanBlocksRun) {
  ResilientRunner runner("gated", {.maxAttempts = 1});
  const std::vector<std::string> names = {"c0", "dirty", "c1", "c2", "c3"};
  std::atomic<unsigned> verifierCalls{0};
  std::atomic<bool> dirtyVerified{false};
  std::vector<std::unique_ptr<std::atomic<unsigned>>> drcCalls;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const bool dirty = names[i] == "dirty";
    runner.addSecBlock(names[i], i + 1, sec::SecOptions{},
                       [&, dirty](const sec::SecOptions&) {
                         ++verifierCalls;
                         if (dirty) dirtyVerified = true;
                         return verdictResult(
                             sec::Verdict::kProvenEquivalent);
                       });
    drcCalls.push_back(std::make_unique<std::atomic<unsigned>>(0));
    std::atomic<unsigned>* calls = drcCalls.back().get();
    runner.setBlockDrc(names[i], [calls, dirty] {
      ++*calls;
      drc::DrcReport r;
      if (dirty)
        r.add(drc::Rule::kUndrivenNet, drc::Severity::kError,
              drc::Layer::kRtl, "dirty/net 'x'", "no driver");
      return r;
    });
  }
  runner.setDrcPolicy(DrcPolicy::kBlock);
  ParallelExecutor exec(4);
  runner.setExecutor(&exec);
  const PlanReport report = runner.runAll();

  EXPECT_EQ(report.workers, 5u);  // five blocks: four spawned + the caller
  EXPECT_FALSE(dirtyVerified.load());  // blocked without running
  EXPECT_EQ(verifierCalls.load(), names.size() - 1);
  EXPECT_EQ(report.verified, names.size() - 1);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.blocked, 1u);
  ASSERT_EQ(report.blocks.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const BlockResult& b = report.blocks[i];
    EXPECT_EQ(b.block, names[i]) << i;  // registration order kept
    EXPECT_EQ(drcCalls[i]->load(), 1u) << i;  // DRC ran once per block
    ASSERT_TRUE(b.drc.has_value()) << i;
    const bool dirty = names[i] == "dirty";
    EXPECT_EQ(b.blockedByDrc, dirty) << i;
    EXPECT_EQ(b.passed, !dirty) << i;
    EXPECT_EQ(b.attempts, dirty ? 0u : 1u) << i;
  }
}

// ----- Fault-injection determinism per worker -------------------------------

TEST(ParallelRunner, InjectionSchedulesArePerBlockAndReproducible) {
  RetryPolicy policy;
  policy.maxAttempts = 1;
  auto makeRunner = [&policy]() {
    auto runner = std::make_unique<ResilientRunner>("plan", policy);
    for (const char* name : {"b0", "b1", "b2"}) {
      auto fix = std::make_shared<ChecksumFixture>();
      sec::SecOptions opts;
      opts.boundTransactions = 2;
      runner->addSecBlock(name, 1, opts,
                          [fix = std::move(fix)](const sec::SecOptions& o) {
                            return sec::checkEquivalence(*fix->problem, o);
                          });
    }
    return runner;
  };
  auto runArmed = [&](ResilientRunner& runner, ParallelExecutor* exec) {
    fault::ScopedInjector si(0x5eed);
    si.injector().arm(fault::Site::kSecBmcPhase,
                      fault::Policy::kExhaustBudget, 1, 1);
    if (exec != nullptr) runner.setExecutor(exec);
    return runner.runAll();
  };
  ParallelExecutor exec(3);
  auto r1 = makeRunner();
  auto r2 = makeRunner();
  const PlanReport a = runArmed(*r1, &exec);
  const PlanReport b = runArmed(*r2, &exec);
  ASSERT_EQ(a.blocks.size(), 3u);
  ASSERT_EQ(b.blocks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Two parallel runs inject identically...
    EXPECT_EQ(a.blocks[i].faultInjections, b.blocks[i].faultInjections) << i;
    EXPECT_EQ(a.blocks[i].inconclusive, b.blocks[i].inconclusive) << i;
    EXPECT_EQ(a.blocks[i].detail, b.blocks[i].detail) << i;
    // ...and every block sees its own fresh (seed, site, hit) stream, so
    // each one is hit by the nth-hit-1 arming — unlike a serial run where
    // one shared stream's first hit lands on whichever block runs first.
    EXPECT_GE(a.blocks[i].faultInjections, 1u) << i;
    EXPECT_TRUE(a.blocks[i].inconclusive) << i;
  }
}

}  // namespace
}  // namespace dfv::core
