// RESIL — fault -> recovery matrix and retry-ladder economics.
//
// The resilient runner (core/resilient.h) exists so that one stubborn or
// crashing block cannot stall the whole consistency signal (§4.1).  This
// bench regenerates the two tables EXPERIMENTS.md quotes:
//
//   1. fault -> recovery matrix — every fault site x policy x
//      {transient, persistent} combination injected (dfv::fault) into a
//      two-block journaled plan; the table shows the structured outcome per
//      block.  The journal sites (journal.append/fsync/commit, including
//      the torn-write crash model) ride the same matrix: a journal fault
//      may cost durability, never a verdict.  The invariant: no combination
//      escapes runAll() as an exception, and every injection is attributed
//      to a block's faultInjections counter.
//   2. retry-ladder cost — the deliberately hard designs under starvation
//      budgets: gcd_breakif (fraig off + propagation caps: inconclusive
//      until a rung re-enables fraig) and FIR without structural aliasing
//      (induction cut by conflict caps: bounded until a rung's budget
//      covers the ~204k-conflict inductive proof).  Per-attempt rows show
//      what each rung cost and bought.
//   3. graceful degradation — gcd_breakif with fraig withheld entirely:
//      the ladder tops out inconclusive and the block falls back to seeded
//      random co-simulation, passing with degraded=true in the JSON.
//
// Budgets here are conflict/propagation caps on purpose: verdicts are then
// machine-independent and the tables reproduce anywhere (see CLAUDE.md).
//
// With --smoke: the full matrix (it is cheap) but a truncated ladder with
// no fraig/no-aliasing rungs — a wiring check making no timing claims.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cosim/scoreboard.h"
#include "core/journal.h"
#include "core/resilient.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "designs/wrapcnt.h"
#include "fault/fault.h"
#include "ir/expr.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The matrix's guinea-pig plan: a budgeted real SEC block (gcd) with a
/// random-cosim fallback, plus a scoreboard-backed cosim block, so every
/// fault site is on some block's path.
core::RetryPolicy matrixPolicy() {
  core::RetryPolicy p;
  p.maxAttempts = 2;
  return p;
}

struct MatrixPlan {
  std::unique_ptr<ir::Context> ctx = std::make_unique<ir::Context>();
  designs::GcdSecSetup gcd;
  core::ResilientRunner runner{"matrix", matrixPolicy()};

  MatrixPlan() {
    gcd = designs::makeGcdSecProblem(*ctx);
    sec::SecOptions base;
    base.bmcBudget.maxConflicts = 100000;
    base.inductionBudget.maxConflicts = 100000;
    runner.addSecBlock("gcd", 1, base, [this](const sec::SecOptions& o) {
      return sec::checkEquivalence(*gcd.problem, o);
    });
    runner.setCosimFallback("gcd",
                            core::makeRandomCosimFallback(*gcd.problem, 8));
    runner.addCosimBlock("stream", 2, [](std::uint64_t) {
      cosim::CycleExactScoreboard sb;
      for (std::uint64_t c = 0; c < 8; ++c)
        sb.expect(c, bv::BitVector::fromUint(8, c * 5 + 1));
      for (std::uint64_t c = 0; c < 8; ++c)
        sb.observe(c, bv::BitVector::fromUint(8, c * 5 + 1));
      const auto stats = sb.finish();
      return core::ResilientRunner::CosimOutcome{
          stats.clean(),
          stats.clean() ? "8 samples matched" : "scoreboard mismatch"};
    });
  }
};

std::string matrixJournalBase() {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << "/tmp/dfv_bench_resilience_" << ::getpid() << "_" << counter++;
  return os.str();
}

const char* statusOf(const core::BlockResult& b) {
  if (b.faulted) return "faulted";
  if (b.degraded) return b.passed ? "degraded-pass" : "degraded-fail";
  if (b.inconclusive) return "inconclusive";
  return b.passed ? "pass" : "fail";
}

/// Whole-run telemetry folded across every PlanReport the bench produces,
/// emitted as the final "summary" JSON row so CI can diff one object
/// instead of scraping tables.
struct Totals {
  unsigned degraded = 0;
  unsigned faulted = 0;
  unsigned escaped = 0;
  std::uint64_t faultInjections = 0;
  /// Block counters summed by name (sec::deterministicCounters).
  std::map<std::string, std::uint64_t> counters;

  void absorb(const core::PlanReport& r) {
    degraded += r.degraded;
    faulted += r.faulted;
    for (const core::BlockResult& b : r.blocks) {
      faultInjections += b.faultInjections;
      for (const auto& [name, value] : b.counters) counters[name] += value;
    }
  }
};

void runMatrix(benchutil::JsonReport& json, Totals& totals) {
  using fault::Policy;
  using fault::Site;
  std::printf("-- fault -> recovery matrix "
              "(2-block journaled plan, ladder depth 2, cosim fallback) --\n");
  std::printf("%-22s %-18s %-10s | %-14s %-8s %5s %-9s %s\n", "site", "policy",
              "mode", "gcd", "stream", "inj", "journal", "escaped");
  const Site sites[] = {Site::kSolverSolve,   Site::kSecBmcPhase,
                        Site::kSecInductionPhase, Site::kCosimSample,
                        Site::kJournalAppend, Site::kJournalFsync,
                        Site::kJournalCommit};
  const Policy policies[] = {Policy::kThrowCheckError, Policy::kSpuriousUnknown,
                             Policy::kExhaustBudget, Policy::kCorruptSample,
                             Policy::kTornWrite};
  unsigned escapedTotal = 0;
  for (Site site : sites) {
    for (Policy policy : policies) {
      for (bool persistent : {false, true}) {
        MatrixPlan plan;
        fault::ScopedInjector scoped(42);
        scoped.injector().arm(site, policy, 1, persistent ? 1 : 0);
        // Journal attached inside the armed window so the journal.* sites
        // are on the path; a commit fault means "run unjournaled" — the
        // documented production reaction.
        std::unique_ptr<core::Journal> journal;
        try {
          journal = std::make_unique<core::Journal>(matrixJournalBase(),
                                                    "matrix");
          plan.runner.setJournal(journal.get());
        } catch (const CheckError&) {
        }
        core::PlanReport report;
        bool escaped = false;
        try {
          report = plan.runner.runAll();
        } catch (...) {
          escaped = true;  // must never happen; reported if it does
          ++escapedTotal;
          ++totals.escaped;
        }
        if (!escaped) totals.absorb(report);
        const std::uint64_t injections = scoped.injector().totalInjections();
        const char* mode = persistent ? "persistent" : "transient";
        const char* gcdStatus =
            escaped ? "-" : statusOf(report.blocks.at(0));
        const char* streamStatus =
            escaped ? "-" : statusOf(report.blocks.at(1));
        const char* journalStatus = journal == nullptr ? "none"
                                    : journal->failed() ? "dead"
                                                        : "alive";
        std::printf("%-22s %-18s %-10s | %-14s %-8s %5llu %-9s %s\n",
                    fault::siteName(site), fault::policyName(policy), mode,
                    gcdStatus, streamStatus,
                    static_cast<unsigned long long>(injections),
                    journalStatus, escaped ? "YES" : "no");
        json.beginRow("fault_recovery_matrix")
            .field("site", fault::siteName(site))
            .field("policy", fault::policyName(policy))
            .field("mode", mode)
            .field("gcd_status", gcdStatus)
            .field("stream_status", streamStatus)
            .field("injections", injections)
            .field("journal", journalStatus)
            .field("escaped", escaped);
      }
    }
  }
  std::printf("uncaught exceptions escaping runAll(): %u (must be 0)\n\n",
              escapedTotal);
}

/// Runs one ladder configuration and prints a row per attempt.
void runLadder(benchutil::JsonReport& json, Totals& totals,
               const std::string& name, const sec::SecProblem& problem,
               const sec::SecOptions& base, const core::RetryPolicy& policy) {
  core::ResilientRunner runner(name, policy);
  runner.addSecBlock(name, 1, base, [&](const sec::SecOptions& o) {
    return sec::checkEquivalence(problem, o);
  });
  const auto start = Clock::now();
  const core::PlanReport report = runner.runAll();
  const double total = secsSince(start);
  totals.absorb(report);
  const core::BlockResult& b = report.blocks.at(0);
  for (const core::AttemptRecord& a : b.attemptLog) {
    std::printf("%-12s rung %u  conflicts<=%-8llu props<=%-9llu %-22s %8.3fs\n",
                name.c_str(), a.rung,
                static_cast<unsigned long long>(a.maxConflicts),
                static_cast<unsigned long long>(a.maxPropagations),
                a.outcome.c_str(), a.seconds);
    json.beginRow("retry_ladder")
        .field("design", name)
        .field("rung", a.rung)
        .field("max_conflicts", a.maxConflicts)
        .field("max_propagations", a.maxPropagations)
        .field("outcome", a.outcome)
        .field("seconds", a.seconds);
  }
  std::printf("%-12s => %s after %u attempt(s), %.3fs total\n\n", name.c_str(),
              b.detail.c_str(), b.attempts, total);
  json.beginRow("retry_ladder_total")
      .field("design", name)
      .field("final", b.detail)
      .field("attempts", b.attempts)
      .field("seconds", total);
}

void runLadders(benchutil::JsonReport& json, Totals& totals, bool smoke) {
  std::printf("-- retry-ladder cost under starvation budgets --\n");
  {
    // gcd_breakif: accumulated break-flag guards defeat structural merging;
    // without fraig the BMC drowns in propagations.  The ladder first buys
    // more budget (not enough), then a rung re-enables fraig and the proof
    // closes.
    ir::Context ctx;
    designs::GcdSecSetup setup = designs::makeGcdBreakIfSecProblem(ctx);
    sec::SecOptions base;
    base.fraig = false;
    base.bmcBudget.maxPropagations = 200000;
    base.inductionBudget.maxPropagations = 200000;
    core::RetryPolicy policy;
    core::RetryRung grow;        // x4 budget, same toggles
    core::RetryRung withFraig;   // x4 budget and fraig back on
    withFraig.fraig = true;
    if (smoke) {
      policy.maxAttempts = 2;    // no fraig rung: wiring check only
      policy.rungs = {grow};
    } else {
      policy.maxAttempts = 3;
      policy.rungs = {grow, withFraig};
    }
    runLadder(json, totals, "gcd_breakif", *setup.problem, base, policy);
  }
  {
    // FIR without structural aliasing: BMC is easy but the inductive step
    // needs ~169k conflicts.  Rungs 0 and 1 return the sound bounded
    // verdict with the induction cut off; the ladder keeps climbing
    // (RetryPolicy::retryInductionCutoff) until the budget covers the
    // proof.
    ir::Context ctx;
    designs::FirSecSetup setup =
        designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
    sec::SecOptions base;
    core::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.budgetScale = 4.0;
    if (smoke) {
      base.inductionBudget.maxConflicts = 100000;  // proof fits at rung 0
    } else {
      base.structuralAliasing = false;
      base.inductionBudget.maxConflicts = 25000;
    }
    runLadder(json, totals, "fir", *setup.problem, base, policy);
  }
}

void runDegradation(benchutil::JsonReport& json, Totals& totals, bool smoke) {
  std::printf("-- graceful degradation: never-provable block -> cosim --\n");
  ir::Context ctx;
  designs::GcdSecSetup setup = designs::makeGcdBreakIfSecProblem(ctx);
  sec::SecOptions base;
  base.fraig = false;  // withheld: this configuration can never prove it
  base.bmcBudget.maxPropagations = 100000;
  base.inductionBudget.maxPropagations = 100000;
  core::RetryPolicy policy;
  policy.maxAttempts = smoke ? 1 : 2;
  policy.cosimSeed = 2024;
  core::ResilientRunner runner("degradation", policy);
  runner.addSecBlock("gcd_breakif", 1, base, [&](const sec::SecOptions& o) {
    return sec::checkEquivalence(*setup.problem, o);
  });
  runner.setCosimFallback(
      "gcd_breakif", core::makeRandomCosimFallback(*setup.problem, 16));
  const core::PlanReport report = runner.runAll();
  totals.absorb(report);
  const core::BlockResult& b = report.blocks.at(0);
  std::printf("block %s: %s (attempts=%u degraded=%s)\n", b.block.c_str(),
              b.detail.c_str(), b.attempts, b.degraded ? "true" : "false");
  std::printf("plan summary: %s\n", report.summary().c_str());
  std::printf("report json: %s\n\n", report.json("degradation").c_str());
  json.beginRow("degradation")
      .field("block", b.block)
      .field("attempts", b.attempts)
      .field("degraded", b.degraded)
      .field("passed", b.passed)
      .field("detail", b.detail);
}

void runInvariantRescue(benchutil::JsonReport& json, Totals& totals) {
  // Three-policy contrast on wrapcnt, whose induction closes only through
  // certified strengthening (the >= vs == wrap comparators agree only on
  // reachable states, so BMC constant-folds clean from reset while the
  // inductive step is SAT from a symbolic start).  Same starved base
  // everywhere; the policies differ only in what the ladder may change:
  //   none      — no rungs: the sound bounded verdict, twice
  //   budget    — a rung restores real budget: still bounded, because no
  //               amount of solver time proves a non-inductive property
  //   invariants— the same rung also flips invariants on: proven outright
  // This is the invariants analog of gcd_breakif's fraig rung — budget
  // alone cannot buy what a missing fact withholds.
  std::printf("-- invariant-rung rescue: bounded -> proven on wrapcnt --\n");
  struct Policy {
    const char* name;
    bool rung;        // add the budget-restoring rung at all
    bool invariants;  // ... and have it enable strengthening
  };
  for (const Policy p : {Policy{"none", false, false},
                         Policy{"budget", true, false},
                         Policy{"invariants", true, true}}) {
    ir::Context ctx;
    designs::WrapcntSecSetup setup = designs::makeWrapcntSecProblem(ctx);
    sec::SecOptions base;
    base.invariants = false;
    base.boundTransactions = 3;
    base.bmcBudget.maxPropagations = 1;
    base.inductionBudget.maxPropagations = 1;
    core::RetryPolicy policy;
    policy.maxAttempts = 2;
    if (p.rung) {
      core::RetryRung rung;
      rung.budgetScale = 2e6;
      if (p.invariants) rung.invariants = true;
      policy.rungs = {rung};
    } else {
      policy.budgetScale = 1.0;
    }
    core::ResilientRunner runner("inv_rescue", policy);
    runner.addSecBlock("wrapcnt", 1, base, [&](const sec::SecOptions& o) {
      return sec::checkEquivalence(*setup.problem, o);
    });
    const core::PlanReport report = runner.runAll();
    totals.absorb(report);
    const core::BlockResult& b = report.blocks.at(0);
    const std::uint64_t certified = b.counters.at("inv_certified");
    std::printf("%-12s => %-40s attempts=%u degraded=%-5s certified=%llu\n",
                p.name, b.detail.c_str(), b.attempts,
                b.degraded ? "true" : "false",
                static_cast<unsigned long long>(certified));
    json.beginRow("inv_rescue")
        .field("policy", p.name)
        .field("detail", b.detail)
        .field("attempts", b.attempts)
        .field("degraded", b.degraded)
        .field("passed", b.passed)
        .field("invCertified", certified);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport json(argc, argv, "resilience");
  std::printf("RESIL: fault injection, retry ladders, degradation%s\n\n",
              smoke ? " (smoke)" : "");
  Totals totals;
  runMatrix(json, totals);
  runLadders(json, totals, smoke);
  runDegradation(json, totals, smoke);
  runInvariantRescue(json, totals);
  std::printf("totals: degraded=%u faulted=%u escaped=%u injections=%llu "
              "slice(severed=%llu seqconst=%llu)\n",
              totals.degraded, totals.faulted, totals.escaped,
              static_cast<unsigned long long>(totals.faultInjections),
              static_cast<unsigned long long>(
                  totals.counters["slice_states_severed"]),
              static_cast<unsigned long long>(
                  totals.counters["slice_seq_constants"]));
  json.beginRow("summary")
      .field("degraded", totals.degraded)
      .field("faulted", totals.faulted)
      .field("escaped", totals.escaped)
      .field("faultInjections", totals.faultInjections)
      .field("slice_states_severed", totals.counters["slice_states_severed"])
      .field("slice_seq_constants", totals.counters["slice_seq_constants"]);
  return json.write() && totals.escaped == 0 ? 0 : 1;
}
