// PAR — parallel plan execution and portfolio racing (DESIGN.md §12).
//
// Two tables:
//   scaling    — one multi-block plan run serially and on a
//                core::ParallelExecutor at 1/2/4/8 workers: wall time,
//                blocks/sec, speedup vs serial.  Worker scaling is a
//                HARDWARE claim: the printed host core count bounds what
//                any run can show (a 1-core container shows ~1x and that
//                is the correct, honest result there).
//   portfolio  — the configuration-robustness win, measurable on any host
//                including 1 core: a deliberately starved base
//                configuration (fraig off + a conflict cap on a
//                regrouped-adder miter, the shape fraig exists to rescue)
//                is inconclusive on its own, but a racing portfolio whose
//                diversification re-enables fraig concludes decisively —
//                and the recorded winner replays bit-identically on one
//                thread (the determinism contract, asserted here too).

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "core/parallel.h"
#include "core/resilient.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "ir/expr.h"
#include "sec/engine.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ----- scaling --------------------------------------------------------------

/// Registers `copies` independent instances of each reference SEC block.
/// Every runner builds its own ir::Context, so concurrent blocks share no
/// mutable state at all.
core::ResilientRunner makeScalingPlan(unsigned copies, unsigned firBound) {
  core::RetryPolicy policy;
  policy.maxAttempts = 1;
  core::ResilientRunner runner("par-soc", policy);
  std::uint64_t digest = 1;
  for (unsigned c = 0; c < copies; ++c) {
    const std::string suffix = std::to_string(c);
    runner.addSecBlock("fir" + suffix, digest++,
                       sec::SecOptions{.boundTransactions = firBound},
                       [](const sec::SecOptions& o) {
                         ir::Context ctx;
                         auto s = designs::makeFirSecProblem(
                             ctx, designs::FirBug::kNone);
                         return sec::checkEquivalence(*s.problem, o);
                       });
    runner.addSecBlock("gcd" + suffix, digest++,
                       sec::SecOptions{.boundTransactions = 1},
                       [](const sec::SecOptions& o) {
                         ir::Context ctx;
                         auto s = designs::makeGcdSecProblem(ctx);
                         return sec::checkEquivalence(*s.problem, o);
                       });
    runner.addSecBlock("fpadd" + suffix, digest++,
                       sec::SecOptions{.boundTransactions = 1},
                       [](const sec::SecOptions& o) {
                         ir::Context ctx;
                         auto s = designs::makeFpAddSecProblem(
                             ctx, fp::Format::minifloat(), true);
                         return sec::checkEquivalence(*s.problem, o);
                       });
  }
  return runner;
}

// ----- portfolio ------------------------------------------------------------

/// (a+b)+c vs a+(b+c): structurally distinct, equivalent modulo 2^width.
/// Without fraig the miter is a real UNSAT search that a conflict cap
/// starves; with fraig the regrouped internal points merge and the solve
/// collapses (fraig's candidate SAT calls are not phase-budget-governed).
struct RegroupedAdd {
  ir::Context ctx;
  ir::TransitionSystem slm{ctx, "slm"};
  ir::TransitionSystem rtl{ctx, "rtl"};
  std::unique_ptr<sec::SecProblem> problem;

  explicit RegroupedAdd(unsigned width) {
    ir::NodeRef a = slm.addInput("s.a", width);
    ir::NodeRef b = slm.addInput("s.b", width);
    ir::NodeRef c = slm.addInput("s.c", width);
    slm.addOutput("out", ctx.add(ctx.add(a, b), c));
    ir::NodeRef ra = rtl.addInput("r.a", width);
    ir::NodeRef rb = rtl.addInput("r.b", width);
    ir::NodeRef rc = rtl.addInput("r.c", width);
    rtl.addOutput("out", ctx.add(ra, ctx.add(rb, rc)));
    problem = std::make_unique<sec::SecProblem>(ctx, slm, 1, rtl, 1);
    for (const char* n : {"a", "b", "c"}) {
      ir::NodeRef v = problem->declareTxnVar(n, width);
      problem->bindInput(sec::Side::kSlm, std::string("s.") + n, 0, v);
      problem->bindInput(sec::Side::kRtl, std::string("r.") + n, 0, v);
    }
    problem->checkOutputs("out", 0, "out", 0);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "parallel");
  const unsigned hostCores = std::thread::hardware_concurrency();
  std::printf("=== PAR: parallel plan execution and portfolio racing ===\n\n");
  std::printf("host hardware_concurrency: %u%s\n\n", hostCores,
              hostCores <= 1
                  ? "  (single core: expect ~1x scaling; the portfolio"
                    " table is the meaningful one here)"
                  : "");
  if (smoke) std::printf("(--smoke: tiny parameters, no timing claims)\n\n");

  // ----- worker scaling -----------------------------------------------------
  const unsigned copies = smoke ? 1 : 3;       // blocks = 3 * copies
  const unsigned firBound = smoke ? 2 : 4;
  std::printf("--- plan throughput: %u independent blocks ---\n",
              3 * copies);
  std::printf("%-8s %10s %12s %9s\n", "workers", "seconds", "blocks/sec",
              "speedup");
  double serialSecs = 0.0;
  const auto workerCounts =
      smoke ? std::vector<unsigned>{0, 2} : std::vector<unsigned>{0, 1, 2, 4, 8};
  for (unsigned w : workerCounts) {  // 0 = serial (no executor)
    core::ResilientRunner runner = makeScalingPlan(copies, firBound);
    std::unique_ptr<core::ParallelExecutor> exec;
    if (w > 0) {
      exec = std::make_unique<core::ParallelExecutor>(w);
      runner.setExecutor(exec.get());
    }
    const auto t0 = Clock::now();
    const core::PlanReport pr = runner.runAll();
    const double secs = secsSince(t0);
    if (w == 0) serialSecs = secs;
    const double rate = static_cast<double>(pr.blocks.size()) / secs;
    const double speedup = serialSecs / secs;
    std::printf("%-8s %10.3f %12.1f %8.2fx\n",
                w == 0 ? "serial" : std::to_string(w).c_str(), secs, rate,
                speedup);
    if (!pr.allPassed()) std::printf("  !! plan did not pass\n");
    report.beginRow("scaling")
        .field("workers", w)
        .field("blocks", pr.blocks.size())
        .field("seconds", secs)
        .field("blocks_per_sec", rate)
        .field("speedup", speedup)
        .field("all_passed", pr.allPassed());
  }

  // ----- portfolio rescue ---------------------------------------------------
  const unsigned width = smoke ? 10 : 16;
  const std::int64_t cap = smoke ? 50 : 2000;
  std::printf("\n--- portfolio rescue: %u-bit regrouped adder, fraig off,"
              " %lld-conflict cap ---\n",
              width, static_cast<long long>(cap));
  sec::SecOptions starved;
  starved.boundTransactions = 1;
  starved.tryInduction = false;
  starved.fraig = false;
  starved.bmcBudget.maxConflicts = cap;

  RegroupedAdd fixture(width);
  auto t0 = Clock::now();
  const sec::SecResult base = sec::checkEquivalence(*fixture.problem, starved);
  const double baseSecs = secsSince(t0);
  std::printf("%-22s %-20s %10.3fs  conflicts=%llu\n", "base alone",
              sec::verdictName(base.verdict), baseSecs,
              static_cast<unsigned long long>(base.stats.satConflicts));
  report.beginRow("portfolio")
      .field("config", "base")
      .field("verdict", sec::verdictName(base.verdict))
      .field("seconds", baseSecs);

  core::PortfolioOptions popts;
  popts.members = 6;     // member 5 flips fraig back on — the rescue
  popts.varyFraig = true;
  const auto members = buildPortfolio(starved, popts);
  core::ParallelExecutor exec(smoke ? 2 : 4);
  t0 = Clock::now();
  const core::PortfolioOutcome out = core::racePortfolio(
      exec, members, [&fixture](const sec::SecOptions& o) {
        return sec::checkEquivalence(*fixture.problem, o);
      });
  const double raceSecs = secsSince(t0);
  if (out.winner < 0) {
    std::printf("%-22s %-20s %10.3fs\n", "portfolio(6)", "no winner",
                raceSecs);
    report.beginRow("portfolio")
        .field("config", "portfolio")
        .field("verdict", "none")
        .field("seconds", raceSecs);
  } else {
    const core::MemberAttempt& w =
        out.attempts[static_cast<std::size_t>(out.winner)];
    std::printf("%-22s %-20s %10.3fs  winner=%s\n", "portfolio(6)",
                sec::verdictName(w.result.verdict), raceSecs,
                w.name.c_str());
    // The determinism contract, exercised where EXPERIMENTS.md quotes it:
    // replaying the recorded winner single-threaded reproduces its verdict
    // and solver statistics exactly.
    const sec::SecResult replay = sec::checkEquivalence(
        *fixture.problem,
        members[static_cast<std::size_t>(out.winner)].options);
    const bool identical = replay.verdict == w.result.verdict &&
                           replay.stats.satConflicts ==
                               w.result.stats.satConflicts &&
                           replay.stats.satDecisions ==
                               w.result.stats.satDecisions &&
                           replay.stats.aigNodes == w.result.stats.aigNodes;
    std::printf("%-22s %-20s %s\n", "winner replayed 1-thread",
                sec::verdictName(replay.verdict),
                identical ? "bit-identical stats" : "STATS MISMATCH");
    report.beginRow("portfolio")
        .field("config", "portfolio")
        .field("verdict", sec::verdictName(w.result.verdict))
        .field("seconds", raceSecs)
        .field("winner", w.name)
        .field("replay_identical", identical);
  }

  return report.write() ? 0 : 1;
}
