// Tests for the verification-plan core on a plain one-shot plan (one
// attempt per block, no fallback): full vs incremental runs, digest gating,
// failure localization.

#include <gtest/gtest.h>

#include "core/resilient.h"

namespace dfv::core {
namespace {

/// A stub SEC runner counting invocations.
struct CountingSec {
  int* counter;
  sec::Verdict verdict;
  sec::SecResult operator()(const sec::SecOptions&) const {
    ++*counter;
    sec::SecResult r;
    r.verdict = verdict;
    return r;
  }
};

TEST(OneShotPlan, RunAllRunsEverything) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  int a = 0, b = 0;
  plan.addSecBlock("fir", 1, {},
                   CountingSec{&a, sec::Verdict::kProvenEquivalent});
  plan.addSecBlock("conv", 1, {},
                   CountingSec{&b, sec::Verdict::kBoundedEquivalent});
  auto report = plan.runAll();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_TRUE(report.allPassed());
  EXPECT_EQ(report.verified, 2u);
  auto again = plan.runAll();
  EXPECT_EQ(a, 2);  // runAll never caches
}

TEST(OneShotPlan, IncrementalSkipsUnchangedBlocks) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  int a = 0, b = 0;
  plan.addSecBlock("fir", 10, {},
                   CountingSec{&a, sec::Verdict::kProvenEquivalent});
  plan.addSecBlock("conv", 20, {},
                   CountingSec{&b, sec::Verdict::kProvenEquivalent});
  plan.runAll();
  // No edits: incremental run verifies nothing.
  auto r1 = plan.runIncremental();
  EXPECT_EQ(r1.skipped, 2u);
  EXPECT_EQ(r1.verified, 0u);
  EXPECT_EQ(a, 1);
  // Edit only conv: only conv reruns.
  plan.touch("conv", 21);
  auto r2 = plan.runIncremental();
  EXPECT_EQ(r2.skipped, 1u);
  EXPECT_EQ(r2.verified, 1u);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(OneShotPlan, FailuresAlwaysRerunAndLocalize) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  int calls = 0;
  sec::Verdict verdict = sec::Verdict::kNotEquivalent;
  plan.addSecBlock("buggy", 5, {}, [&](const sec::SecOptions&) {
    ++calls;
    sec::SecResult r;
    r.verdict = verdict;
    return r;
  });
  auto r1 = plan.runIncremental();
  EXPECT_EQ(r1.failed, 1u);
  EXPECT_EQ(r1.failingBlocks(), std::vector<std::string>{"buggy"});
  // Same digest, but a failed block is never treated as clean.
  auto r2 = plan.runIncremental();
  EXPECT_EQ(calls, 2);
  // "Fix" the model: same digest semantics — the fix changes the digest.
  verdict = sec::Verdict::kProvenEquivalent;
  plan.touch("buggy", 6);
  auto r3 = plan.runIncremental();
  EXPECT_TRUE(r3.allPassed());
  auto r4 = plan.runIncremental();
  EXPECT_EQ(r4.skipped, 1u);
  EXPECT_EQ(calls, 3);
}

TEST(OneShotPlan, InconclusiveIsItsOwnOutcome) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  int stalled = 0, good = 0;
  plan.addSecBlock("stalled", 1, {},
                   CountingSec{&stalled, sec::Verdict::kInconclusive});
  plan.addSecBlock("good", 1, {},
                   CountingSec{&good, sec::Verdict::kProvenEquivalent});
  auto r1 = plan.runAll();
  // Inconclusive is neither verified nor failed, but it does spoil the plan.
  EXPECT_EQ(r1.inconclusive, 1u);
  EXPECT_EQ(r1.verified, 1u);
  EXPECT_EQ(r1.failed, 0u);
  EXPECT_FALSE(r1.allPassed());
  EXPECT_TRUE(r1.failingBlocks().empty());
  EXPECT_NE(r1.summary().find("1 inconclusive"), std::string::npos);
  EXPECT_FALSE(r1.blocks[0].passed);
  EXPECT_TRUE(r1.blocks[0].inconclusive);
  // An inconclusive block is never treated as clean: it reruns even with an
  // unchanged digest, while the verified block is skipped.
  auto r2 = plan.runIncremental();
  EXPECT_EQ(stalled, 2);
  EXPECT_EQ(good, 1);
  EXPECT_EQ(r2.inconclusive, 1u);
  EXPECT_EQ(r2.skipped, 1u);
  // Report JSON carries the distinct status and summary counter.
  const std::string json = r2.json(plan.name());
  EXPECT_NE(json.find("\"inconclusive\":1"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"inconclusive\""), std::string::npos);
  EXPECT_NE(json.find("\"all_passed\":false"), std::string::npos);
}

TEST(OneShotPlan, CosimBlocksAndMixedPlans) {
  ResilientRunner plan("mixed", {.maxAttempts = 1});
  int cosimRuns = 0;
  plan.addCosimBlock("mac", 1, [&](std::uint64_t) {
    ++cosimRuns;
    return ResilientRunner::CosimOutcome{true, "clean scoreboard"};
  });
  int secRuns = 0;
  plan.addSecBlock("alu", 1, {},
                   CountingSec{&secRuns, sec::Verdict::kProvenEquivalent});
  auto report = plan.runAll();
  EXPECT_TRUE(report.allPassed());
  EXPECT_EQ(report.blocks.size(), 2u);
  EXPECT_EQ(report.blocks[0].detail, "clean scoreboard");
  EXPECT_EQ(report.blocks[1].detail, std::string("proven-equivalent"));
}

TEST(OneShotPlan, ThrowingRunnerIsIsolatedAsFaultedResult) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  bool crash = true;
  int calls = 0;
  plan.addSecBlock("crashy", 3, {}, [&](const sec::SecOptions&) {
    ++calls;
    if (crash) throw CheckError("runner blew up");
    sec::SecResult r;
    r.verdict = sec::Verdict::kProvenEquivalent;
    return r;
  });
  int good = 0;
  plan.addSecBlock("good", 1, {},
                   CountingSec{&good, sec::Verdict::kProvenEquivalent});
  PlanReport r1;
  EXPECT_NO_THROW(r1 = plan.runAll());
  EXPECT_TRUE(r1.blocks[0].faulted);
  EXPECT_FALSE(r1.blocks[0].passed);
  EXPECT_NE(r1.blocks[0].detail.find("runner blew up"), std::string::npos);
  EXPECT_EQ(good, 1);  // the crash did not stop the rest of the plan
  EXPECT_EQ(r1.faulted, 1u);
  EXPECT_EQ(r1.failed, 1u);
  EXPECT_NE(r1.summary().find("1 faulted"), std::string::npos);
  const std::string json = r1.json(plan.name());
  EXPECT_NE(json.find("\"status\":\"faulted\""), std::string::npos);
  EXPECT_NE(json.find("\"faulted\":1"), std::string::npos);
  // A faulted block is never treated as clean: same digest, runs again.
  crash = false;
  auto r2 = plan.runIncremental();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r2.verified, 1u);
  EXPECT_EQ(r2.skipped, 1u);
}

TEST(OneShotPlan, JsonCarriesResilienceFields) {
  ResilientRunner plan("soc", {.maxAttempts = 1});
  int n = 0;
  plan.addSecBlock("fir", 1, {},
                   CountingSec{&n, sec::Verdict::kProvenEquivalent});
  const PlanReport report = plan.runAll();
  const std::string json = report.json(plan.name());
  EXPECT_NE(json.find("\"attempts\":1"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(json.find("\"faulted\":false"), std::string::npos);
  EXPECT_NE(json.find("\"fault_injections\":0"), std::string::npos);
}

TEST(OneShotPlan, DuplicateAndUnknownBlocksRejected) {
  ResilientRunner plan("p", {.maxAttempts = 1});
  int n = 0;
  plan.addSecBlock("x", 1, {},
                   CountingSec{&n, sec::Verdict::kProvenEquivalent});
  EXPECT_THROW(
      plan.addSecBlock("x", 2, {},
                       CountingSec{&n, sec::Verdict::kProvenEquivalent}),
      CheckError);
  EXPECT_THROW(plan.touch("nope", 1), CheckError);
}

}  // namespace
}  // namespace dfv::core
