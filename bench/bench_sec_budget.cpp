// SEC-BUDGET — time-to-verdict under resource budgets.
//
// The SEC engine can now be told to give up: per-phase budgets
// (SecOptions::bmcBudget / inductionBudget) cap each solve by conflicts,
// propagations, or wall-clock, and an exhausted BMC budget returns
// Verdict::kInconclusive instead of hanging.  This experiment maps the
// budget-vs-verdict frontier:
//
//   1. baseline — unlimited budgets on the seed SEC problems (verdicts must
//      match the unbudgeted engine exactly);
//   2. conflict-budget frontier — sweep maxConflicts per design and report
//      the verdict at each rung: below the frontier everything is
//      inconclusive, above it the verdict is identical to unlimited;
//   3. the deliberately hard mutant — the breakIf gcd (the shape DRC flags
//      as sec-guard-accumulation) under in-engine wall-clock budgets.  This
//      replaces the fork/SIGKILL harness bench_drc needed before the engine
//      could interrupt itself: the run returns kInconclusive with full
//      telemetry for the phase it was in;
//   4. budget masking — a real bug (FIR narrow accumulator) under a budget
//      too small to find the counterexample: the verdict is kInconclusive,
//      never a false "equivalent", which is exactly why inconclusive must
//      stay distinct from pass in plan reports.
//
// With --smoke: tiny budget ladder, baseline + one hard-mutant rung only —
// a wiring check making no timing claims.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "rtl/lower.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps a design setup (context-owned transition systems + problem) alive
/// while exposing just the SecProblem.
template <typename Setup>
std::shared_ptr<sec::SecProblem> hold(std::shared_ptr<Setup> s) {
  return std::shared_ptr<sec::SecProblem>(s, s->problem.get());
}

struct ConvWinSetup {
  std::unique_ptr<ir::TransitionSystem> slm;
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<sec::SecProblem> problem;
};

ConvWinSetup makeConvWinProblem(ir::Context& ctx) {
  ConvWinSetup s;
  const auto kernel = designs::ConvKernel::sharpen();
  auto e = slmc::elaborate(designs::makeConvWindowSlm(kernel), ctx, "s.");
  DFV_CHECK(e.ok);
  s.slm = std::move(e.ts);
  s.rtl = std::make_unique<ir::TransitionSystem>(rtl::lowerToTransitionSystem(
      designs::makeConvWindowRtl(kernel), ctx, "r."));
  s.problem = std::make_unique<sec::SecProblem>(ctx, *s.slm, 1, *s.rtl, 1);
  for (unsigned i = 0; i < 9; ++i) {
    auto v = s.problem->declareTxnVar("p" + std::to_string(i), 8);
    s.problem->bindInput(sec::Side::kSlm, "s.p" + std::to_string(i), 0, v);
    s.problem->bindInput(sec::Side::kRtl, "r.p" + std::to_string(i), 0, v);
  }
  s.problem->checkOutputs("ret", 0, "pix", 0);
  return s;
}

struct Case {
  const char* name;
  unsigned bound;
  std::function<std::shared_ptr<sec::SecProblem>(ir::Context&)> make;
};

/// Every conflict the phases spent: the budgeted sweep and solve work plus
/// the unswept probes'.
std::uint64_t conflictsUsed(const sec::SecStats& stats) {
  std::uint64_t total = 0;
  for (const auto& phase : stats.bmcTransactions)
    total += phase.conflicts + phase.probeConflicts;
  return total + stats.induction.conflicts + stats.induction.probeConflicts;
}

const char* shortVerdict(sec::Verdict v) {
  switch (v) {
    case sec::Verdict::kProvenEquivalent:  return "proven";
    case sec::Verdict::kBoundedEquivalent: return "bounded";
    case sec::Verdict::kNotEquivalent:     return "not-equiv";
    case sec::Verdict::kInconclusive:      return "INCONCLUSIVE";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "sec_budget");

  std::printf("=== SEC-BUDGET: time-to-verdict under resource budgets ===\n");
  if (smoke) std::printf("(--smoke: tiny parameters, no timing claims)\n");
  std::printf("\n");

  std::vector<Case> cases = {
      {"fir", designs::kFirTaps + 2,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::FirSecSetup>(
             designs::makeFirSecProblem(ctx, designs::FirBug::kNone)));
       }},
      {"conv_win", 1,
       [](ir::Context& ctx) {
         return hold(std::make_shared<ConvWinSetup>(makeConvWinProblem(ctx)));
       }},
      {"gcd", 1,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::GcdSecSetup>(
             designs::makeGcdSecProblem(ctx)));
       }},
      {"fpadd", 1,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::FpAddSecSetup>(
             designs::makeFpAddSecProblem(ctx, fp::Format::minifloat(),
                                          /*constrainToSafeBand=*/true)));
       }},
  };
  if (smoke) cases.resize(2);  // fir + conv_win exercise every code path

  // ----- part 1: unlimited budgets are the unbudgeted engine ---------------
  std::printf("--- baseline: unlimited budgets (seed SEC problems) ---\n");
  std::printf("%-10s %9s %10s %9s %9s  %s\n", "design", "sec(s)", "conflicts",
              "aig(bmc)", "aig(ind)", "verdict");
  for (const Case& c : cases) {
    ir::Context ctx;
    auto problem = c.make(ctx);
    const auto t0 = Clock::now();
    const auto r = sec::checkEquivalence(*problem,
                                         {.boundTransactions = c.bound});
    const double secs = secsSince(t0);
    std::printf("%-10s %9.3f %10llu %9zu %9zu  %s\n", c.name, secs,
                static_cast<unsigned long long>(conflictsUsed(r.stats)),
                r.stats.bmcAigNodes, r.stats.inductionAigNodes,
                sec::verdictName(r.verdict));
    report.beginRow("baseline")
        .field("design", c.name)
        .field("seconds", secs)
        .field("conflicts", conflictsUsed(r.stats))
        .field("aigBmc", r.stats.bmcAigNodes)
        .field("aigInduction", r.stats.inductionAigNodes)
        .field("verdict", sec::verdictName(r.verdict));
  }
  std::printf("\n");

  // ----- part 2: conflict-budget frontier ----------------------------------
  const std::vector<std::uint64_t> ladder =
      smoke ? std::vector<std::uint64_t>{1, 0}
            : std::vector<std::uint64_t>{1, 16, 256, 4096, 65536, 0};
  std::printf("--- conflict-budget frontier (same cap on BMC + induction; "
              "0 = unlimited) ---\n");
  std::printf("%-10s", "design");
  for (std::uint64_t b : ladder) {
    if (b == 0)
      std::printf(" %18s", "unlimited");
    else
      std::printf(" %18llu", static_cast<unsigned long long>(b));
  }
  std::printf("\n");
  for (const Case& c : cases) {
    std::printf("%-10s", c.name);
    for (std::uint64_t b : ladder) {
      ir::Context ctx;
      auto problem = c.make(ctx);
      sec::SecOptions o;
      o.boundTransactions = c.bound;
      o.bmcBudget.maxConflicts = b;
      o.inductionBudget.maxConflicts = b;
      const auto t0 = Clock::now();
      const auto r = sec::checkEquivalence(*problem, o);
      const double secs = secsSince(t0);
      char cell[32];
      std::snprintf(cell, sizeof cell, "%s/%.2fs", shortVerdict(r.verdict),
                    secs);
      std::printf(" %18s", cell);
      report.beginRow("conflict_frontier")
          .field("design", c.name)
          .field("maxConflicts", b)
          .field("seconds", secs)
          .field("verdict", shortVerdict(r.verdict));
    }
    std::printf("\n");
  }
  std::printf("(below the frontier: INCONCLUSIVE; above it: the unlimited "
              "verdict, unchanged)\n\n");

  // ----- part 3: the hard shape under in-engine propagation budgets --------
  //
  // With fraig on (the default) the sweep merges the whole miter cone and
  // the main solve is free, so budgets never bind; the cliff this part
  // measures only exists with sweeping off.  Propagation caps — not wall
  // clock — so the frontier is a machine-independent fact (CLAUDE.md).
  std::printf("--- breakIf gcd (sec-guard-accumulation shape), fraig off, "
              "under propagation budgets ---\n");
  std::printf("%-12s %-6s %9s %12s %10s %9s %9s  %s\n", "props<=", "fraig",
              "sec(s)", "conflicts", "restarts", "learnt", "deleted",
              "verdict");
  struct BreakIfArm {
    std::uint64_t maxPropagations;
    bool fraig;
  };
  std::vector<BreakIfArm> arms =
      smoke ? std::vector<BreakIfArm>{{200000, false}}
            : std::vector<BreakIfArm>{{1000000, false},
                                      {4000000, false},
                                      {16000000, false},
                                      {16000000, true}};
  for (const BreakIfArm& arm : arms) {
    ir::Context ctx;
    auto setup = designs::makeGcdBreakIfSecProblem(ctx);
    sec::SecOptions o;
    o.boundTransactions = 1;
    o.fraig = arm.fraig;
    o.bmcBudget.maxPropagations = arm.maxPropagations;
    o.inductionBudget.maxPropagations = arm.maxPropagations;
    const auto t0 = Clock::now();
    const auto r = sec::checkEquivalence(*setup.problem, o);
    std::uint64_t restarts = r.stats.induction.restarts;
    std::uint64_t learnt = r.stats.induction.learntClauses;
    std::uint64_t deleted = r.stats.induction.deletedClauses;
    for (const auto& phase : r.stats.bmcTransactions) {
      restarts += phase.restarts;
      learnt += phase.learntClauses;
      deleted += phase.deletedClauses;
    }
    char label[32];
    std::snprintf(label, sizeof label, "%lluk",
                  static_cast<unsigned long long>(arm.maxPropagations / 1000));
    const double secs = secsSince(t0);
    std::printf("%-12s %-6s %9.3f %12llu %10llu %9llu %9llu  %s\n", label,
                arm.fraig ? "on" : "off", secs,
                static_cast<unsigned long long>(conflictsUsed(r.stats)),
                static_cast<unsigned long long>(restarts),
                static_cast<unsigned long long>(learnt),
                static_cast<unsigned long long>(deleted),
                sec::verdictName(r.verdict));
    report.beginRow("propagation_budget")
        .field("maxPropagations", arm.maxPropagations)
        .field("fraig", arm.fraig)
        .field("seconds", secs)
        .field("conflicts", conflictsUsed(r.stats))
        .field("restarts", restarts)
        .field("learntClauses", learnt)
        .field("deletedClauses", deleted)
        .field("verdict", sec::verdictName(r.verdict));
  }
  std::printf("(fraig-off: more propagations buy telemetry, never a verdict "
              "— the no-merge cliff\n measured from inside the engine; the "
              "fraig row shows the sweep stepping over it)\n\n");

  // ----- part 4: a budget too small to find a real bug ---------------------
  std::printf("--- budget masking: FIR narrow-accumulator bug ---\n");
  for (bool budgeted : {true, false}) {
    ir::Context ctx;
    auto setup =
        designs::makeFirSecProblem(ctx, designs::FirBug::kNarrowAccumulator);
    sec::SecOptions o;
    o.boundTransactions = designs::kFirTaps + 2;
    if (budgeted) {
      o.bmcBudget.maxPropagations = 1;
      o.inductionBudget.maxPropagations = 1;
    }
    const auto r = sec::checkEquivalence(*setup.problem, o);
    std::printf("  %-24s -> %-16s (cex: %s)\n",
                budgeted ? "1-propagation budget" : "unlimited",
                sec::verdictName(r.verdict), r.cex.has_value() ? "yes" : "no");
    report.beginRow("budget_masking")
        .field("budgeted", budgeted)
        .field("verdict", sec::verdictName(r.verdict))
        .field("cexFound", r.cex.has_value());
  }
  std::printf("(a starved budget reports INCONCLUSIVE, never a false "
              "\"equivalent\" -- the plan\n layer keeps it distinct from "
              "pass so a starved block cannot greenlight a tapeout)\n");
  return report.write() ? 0 : 1;
}
