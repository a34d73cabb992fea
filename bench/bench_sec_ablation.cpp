// ABL-SEC — ablation of the SEC engine's structural optimizations plus a
// mutation-based qualification of the whole flow (extensions beyond the
// paper; see DESIGN.md §7).
//
// Part 1 — fraig × structuralAliasing matrix across the design suite: SAT
// sweeping (SecOptions::fraig) and structural invariant aliasing are the
// engine's two merging layers; the matrix attributes wall time, miter node
// reduction, and fraig SAT-call cost to each combination.  Verdicts must
// agree wherever both arms finish within budget.
//
// Part 1f — bound sweep: k = 1, 2, 4, 8 with the miter layers on and off,
// per-depth fraig/solve time and delta size (the incremental miter sweeps
// each distinct frame once).
//
// Part 2 — strash reserve + hash-mixing micro-bench: Aig::reserve() sized
// from the unrolling vs growing the table incrementally.
//
// Part 3 — structural invariant aliasing detail: the inductive step can
// apply an equality-shaped coupling invariant either structurally (shared
// symbolic variables; the internal-equivalence-point technique) or as CNF
// constraints.  Verdicts are identical; cost is not.
//
// Part 4 — mutant kill matrix: every single-edit mutant of the FIR RTL is
// checked by SEC and by randomized co-simulation; reports kill rates and
// cross-validates the verdicts (a mutant distinguished by simulation can
// never be proven equivalent).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/truncsum.h"
#include "designs/wrapcnt.h"
#include "rtl/lower.h"
#include "rtl/mutate.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"
#include "workload/workload.h"

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
  /// Full-run per-phase caps (0 = unlimited).  Conflict/propagation caps —
  /// never wall clock — so the matrix's INCONCLUSIVE cells are
  /// machine-independent facts, not artifacts of the host's speed.  Most
  /// cases use a short leash (a cut cell is itself the measurement); fir
  /// gets enough conflicts for both fraig arms to *complete* with
  /// structuralAliasing off, which is the clean completed-vs-completed
  /// comparison.
  std::uint64_t maxConflicts;
  std::uint64_t maxPropagations;
  std::function<std::shared_ptr<sec::SecProblem>(ir::Context&)> make;
};

/// Applies a case's caps (or the tiny smoke leash) to both phase budgets.
void applyBudget(sec::SecOptions& o, const Case& c, bool smoke) {
  o.bmcBudget.maxConflicts = smoke ? 10000 : c.maxConflicts;
  o.bmcBudget.maxPropagations = smoke ? 2000000 : c.maxPropagations;
  o.inductionBudget = o.bmcBudget;
}

/// Every conflict the phases spent: the budgeted sweep and solve work plus
/// the unswept probes'.
std::uint64_t conflictsUsed(const sec::SecStats& stats) {
  std::uint64_t total = 0;
  for (const auto& phase : stats.bmcTransactions)
    total += phase.conflicts + phase.probeConflicts;
  return total + stats.induction.conflicts + stats.induction.probeConflicts;
}

/// Sums a per-phase fraig field across BMC transactions + induction.
template <typename Get>
auto sumPhases(const sec::SecStats& stats, Get get) {
  auto total = get(stats.induction);
  for (const auto& phase : stats.bmcTransactions) total += get(phase);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "sec_ablation");
  std::printf("=== ABL-SEC: engine ablation + mutation kill matrix ===\n\n");
  if (smoke)
    std::printf("(--smoke: first mutants only, short stream, no timing "
                "claims)\n\n");

  // --- Part 1: fraig x structuralAliasing matrix ----------------------------
  std::vector<Case> cases = {
      {"fir", designs::kFirTaps + 2, 1000000, 0,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::FirSecSetup>(
             designs::makeFirSecProblem(ctx, designs::FirBug::kNone)));
       }},
      {"conv_win", 1, 100000, 0,
       [](ir::Context& ctx) {
         return hold(std::make_shared<ConvWinSetup>(makeConvWinProblem(ctx)));
       }},
      {"gcd", 1, 100000, 0,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::GcdSecSetup>(
             designs::makeGcdSecProblem(ctx)));
       }},
      {"fpadd", 1, 100000, 0,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::FpAddSecSetup>(
             designs::makeFpAddSecProblem(ctx, fp::Format::minifloat(),
                                          /*constrainToSafeBand=*/true)));
       }},
      // The no-merge shape conflicts slowly but propagates furiously, so it
      // needs both caps; the proving fraig arm stays far under them.
      {"gcd_breakif", 1, 20000, 20000000,
       [](ir::Context& ctx) {
         return hold(std::make_shared<designs::GcdSecSetup>(
             designs::makeGcdBreakIfSecProblem(ctx)));
       }},
  };
  if (smoke) cases = {cases[0], cases[4]};  // fir + the hard shape

  std::printf("--- fraig x structuralAliasing matrix (conflict budget per "
              "solve: %s) ---\n",
              smoke ? "10k" : "100k; 1M for fir so every arm completes; "
                              "20k+20M props for gcd_breakif");
  std::printf("%-12s %-6s %-6s %8s %10s %10s %9s %8s %10s  %s\n", "design",
              "alias", "fraig", "sec(s)", "cone(pre)", "cone(post)",
              "fraigSAT", "merged", "conflicts", "verdict");
  unsigned verdictMismatches = 0;
  for (const Case& c : cases) {
    sec::Verdict arm0 = sec::Verdict::kInconclusive;
    bool arm0Cut = true;
    for (const bool aliasing : {true, false}) {
      for (const bool fraig : {true, false}) {
        ir::Context ctx;
        auto problem = c.make(ctx);
        sec::SecOptions o;
        o.boundTransactions = c.bound;
        o.structuralAliasing = aliasing;
        o.fraig = fraig;
        // The slowest arms (CNF invariants, no sweeping) would otherwise run
        // unbounded; per-case caps keep the matrix finite and an
        // INCONCLUSIVE cell is itself the measurement.
        applyBudget(o, c, smoke);
        const auto t0 = Clock::now();
        const auto r = sec::checkEquivalence(*problem, o);
        const double secs = secsSince(t0);
        const auto pre = sumPhases(
            r.stats, [](const sec::PhaseStats& p) { return p.fraigNodesBefore; });
        const auto post = sumPhases(
            r.stats, [](const sec::PhaseStats& p) { return p.fraigNodesAfter; });
        const bool cut = r.stats.induction.budgetExhausted ||
                         sumPhases(r.stats, [](const sec::PhaseStats& p) {
                           return static_cast<int>(p.budgetExhausted);
                         }) > 0;
        char preBuf[16] = "-", postBuf[16] = "-";
        if (fraig) {
          std::snprintf(preBuf, sizeof preBuf, "%zu", pre);
          std::snprintf(postBuf, sizeof postBuf, "%zu", post);
        }
        std::printf("%-12s %-6s %-6s %8.3f %10s %10s %9llu %8zu %10llu  %s\n",
                    c.name, aliasing ? "on" : "off", fraig ? "on" : "off",
                    secs, preBuf, postBuf,
                    static_cast<unsigned long long>(r.stats.fraigSatCalls),
                    r.stats.fraigMergedNodes,
                    static_cast<unsigned long long>(conflictsUsed(r.stats)),
                    sec::verdictName(r.verdict));
        report.beginRow("fraig_matrix")
            .field("design", c.name)
            .field("aliasing", aliasing)
            .field("fraig", fraig)
            .field("seconds", secs)
            .field("fraigNodesBefore", pre)
            .field("fraigNodesAfter", post)
            .field("fraigSatCalls", r.stats.fraigSatCalls)
            .field("fraigMergedNodes", r.stats.fraigMergedNodes)
            .field("fraigTimeMs", r.stats.fraigTimeMs)
            .field("conflicts", conflictsUsed(r.stats))
            .field("budgetCut", cut)
            .field("verdict", sec::verdictName(r.verdict));
        // Fraig must never change a verdict: compare the two fraig arms per
        // aliasing setting, but only when neither was cut off by budget.
        if (fraig) {
          arm0 = r.verdict;
          arm0Cut = cut;
        } else if (!arm0Cut && !cut && r.verdict != arm0) {
          ++verdictMismatches;
          std::printf("  !! VERDICT CHANGED by fraig on %s\n", c.name);
        }
      }
    }
  }
  std::printf("(INCONCLUSIVE = budget cap hit; fraig may rescue an arm but "
              "must never flip a\n completed verdict — mismatches: %u, must "
              "be 0)\n\n",
              verdictMismatches);

  // --- Part 1c: slice x fraig matrix ----------------------------------------
  //
  // Structural slicing (SecOptions::slice) is the only preprocessing layer
  // allowed to shrink inductionAigNodes: its facts are sound for induction
  // (DESIGN.md §11).  The full 2^2 matrix checks that slicing and fraig
  // compose with identical verdicts in every cell, and the histo row must
  // show the slice payoff: its RTL observability block is outside every
  // checked cone, and severing it must cut the induction graph by more
  // than 5% (counted as a regression otherwise).  The cone, SAT-call and
  // conflict columns show what the sweep merges and costs in each cell.
  unsigned sliceRegressions = 0;
  std::uint64_t severedTotal = 0, seqConstantsTotal = 0;
  {
    std::vector<Case> slCases = {
        {"fir", 2, 1000000, 0,
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::FirSecSetup>(
               designs::makeFirSecProblem(ctx, designs::FirBug::kNone)));
         }},
        {"histo", 6, 1000000, 0,
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::HistoSecSetup>(
               designs::makeHistoSecProblem(ctx)));
         }},
    };
    if (smoke) slCases = {slCases[1]};  // the design built for slicing

    std::printf("--- slice x fraig matrix ---\n");
    std::printf("%-12s %-6s %-6s %8s %10s %10s %7s %7s %9s %10s %8s %9s  %s\n",
                "design", "slice", "fraig", "sec(s)", "aig(bmc)", "aig(ind)",
                "severed", "seqcst", "cone(pre)", "cone(post)", "satcalls",
                "conflicts", "verdict");
    for (const Case& c : slCases) {
      sec::Verdict ref = sec::Verdict::kInconclusive;
      bool refSet = false;
      std::size_t indOn = 0, indOff = 0;  // at fraig=on
      for (const bool slice : {true, false}) {
        for (const bool fraig : {true, false}) {
          ir::Context ctx;
          auto problem = c.make(ctx);
          sec::SecOptions o;
          o.boundTransactions = c.bound;
          o.slice = slice;
          o.fraig = fraig;
          applyBudget(o, c, smoke);
          const auto t0 = Clock::now();
          const auto r = sec::checkEquivalence(*problem, o);
          const double secs = secsSince(t0);
          const bool cut = r.stats.induction.budgetExhausted ||
                           sumPhases(r.stats, [](const sec::PhaseStats& p) {
                             return static_cast<int>(p.budgetExhausted);
                           }) > 0;
          const auto& sl = r.stats.slice;
          const std::uint64_t severed =
              sl.slm.statesSevered + sl.rtl.statesSevered;
          const std::uint64_t seqcst =
              sl.slm.seqConstants + sl.rtl.seqConstants;
          severedTotal += severed;
          seqConstantsTotal += seqcst;
          if (fraig) (slice ? indOn : indOff) = r.stats.inductionAigNodes;
          // The swept cone: every phase's delta before and after merging.
          const auto pre = sumPhases(r.stats, [](const sec::PhaseStats& p) {
            return p.fraigNodesBefore;
          });
          const auto post = sumPhases(r.stats, [](const sec::PhaseStats& p) {
            return p.fraigNodesAfter;
          });
          std::printf(
              "%-12s %-6s %-6s %8.3f %10zu %10zu %7llu %7llu %9zu %10zu %8llu "
              "%9llu  %s\n",
              c.name, slice ? "on" : "off", fraig ? "on" : "off", secs,
              r.stats.bmcAigNodes, r.stats.inductionAigNodes,
              static_cast<unsigned long long>(severed),
              static_cast<unsigned long long>(seqcst), pre, post,
              static_cast<unsigned long long>(r.stats.fraigSatCalls),
              static_cast<unsigned long long>(conflictsUsed(r.stats)),
              sec::verdictName(r.verdict));
          report.beginRow("slice_matrix")
              .field("design", c.name)
              .field("slice", slice)
              .field("fraig", fraig)
              .field("seconds", secs)
              .field("bmcAigNodes", r.stats.bmcAigNodes)
              .field("inductionAigNodes", r.stats.inductionAigNodes)
              .field("slice_states_severed", severed)
              .field("slice_seq_constants", seqcst)
              .field("sliceNodesBeforeRtl", sl.rtl.nodesBefore)
              .field("sliceNodesAfterRtl", sl.rtl.nodesAfter)
              .field("sliceSeconds", sl.seconds)
              .field("fraigNodesBefore", pre)
              .field("fraigNodesAfter", post)
              .field("fraigSatCalls", r.stats.fraigSatCalls)
              .field("conflicts", conflictsUsed(r.stats))
              .field("budgetCut", cut)
              .field("verdict", sec::verdictName(r.verdict));
          // Every completed cell must agree with the first completed one:
          // both layers are verdict-preserving, alone or composed.
          if (!cut) {
            if (!refSet) {
              ref = r.verdict;
              refSet = true;
            } else if (r.verdict != ref) {
              ++verdictMismatches;
              std::printf("  !! VERDICT CHANGED in slice matrix on %s\n",
                          c.name);
            }
          }
        }
      }
      // The payoff gate: histo (and any design with out-of-cone state) must
      // shrink the induction graph by >5%.  fir has no dead state, so only
      // require no growth there.
      if (indOn != 0 && indOff != 0) {
        const bool wantsCut = std::string(c.name) == "histo";
        const bool regressed =
            wantsCut ? indOn * 20 >= indOff * 19 : indOn > indOff;
        if (regressed) {
          ++sliceRegressions;
          std::printf("  !! SLICE REGRESSION on %s: induction %zu -> %zu\n",
                      c.name, indOff, indOn);
        }
      }
    }
    std::printf("(slice facts are inductive — COI membership and ternary-GFP "
                "constants hold from\n any start state — so both phases use "
                "the sliced systems; regressions: %u, must be 0)\n\n",
                sliceRegressions);
  }

  // --- Part 1e: invariants x slice matrix -----------------------------------
  //
  // Certified invariant strengthening (SecOptions::invariants) is the only
  // channel through which reachability-shaped facts may reach transaction
  // induction (DESIGN.md §16): dfv::inv re-proves every mined fact with a
  // Houdini SAT certificate, making it sound from any start state.
  // wrapcnt is the calibrated fixture — its >= vs == wrap comparators
  // agree only on reachable states, so every invariants=off cell must stay
  // BOUNDED and every invariants=on cell must reach PROVEN (the acceptance
  // gate).
  // histo's induction already closes structurally, so all four of its
  // cells must agree regardless — strengthening with entailed facts is
  // verdict-preserving.
  unsigned invRegressions = 0;
  std::uint64_t invCertifiedTotal = 0;
  {
    std::vector<Case> invCases = {
        {"wrapcnt", 3, 1000000, 0,
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::WrapcntSecSetup>(
               designs::makeWrapcntSecProblem(ctx)));
         }},
        {"histo", 6, 1000000, 0,
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::HistoSecSetup>(
               designs::makeHistoSecProblem(ctx)));
         }},
    };
    if (smoke) invCases = {invCases[0]};  // wrapcnt carries the gate

    std::printf("--- invariants x slice matrix ---\n");
    std::printf("%-12s %-6s %-6s %8s %10s %6s %6s %7s  %s\n", "design", "inv",
                "slice", "sec(s)", "aig(ind)", "cand", "cert", "rounds",
                "verdict");
    for (const Case& c : invCases) {
      const bool isWrapcnt = std::string(c.name) == "wrapcnt";
      sec::Verdict ref = sec::Verdict::kInconclusive;
      bool refSet = false;
      for (const bool invariants : {true, false}) {
        for (const bool slice : {true, false}) {
          ir::Context ctx;
          auto problem = c.make(ctx);
          sec::SecOptions o;
          o.boundTransactions = c.bound;
          o.invariants = invariants;
          o.slice = slice;
          applyBudget(o, c, smoke);
          const auto t0 = Clock::now();
          const auto r = sec::checkEquivalence(*problem, o);
          const double secs = secsSince(t0);
          const bool cut = r.stats.induction.budgetExhausted ||
                           r.stats.inv.budgetExhausted ||
                           sumPhases(r.stats, [](const sec::PhaseStats& p) {
                             return static_cast<int>(p.budgetExhausted);
                           }) > 0;
          invCertifiedTotal += r.stats.inv.certified;
          std::printf("%-12s %-6s %-6s %8.3f %10zu %6llu %6llu %7llu  %s\n",
                      c.name, invariants ? "on" : "off", slice ? "on" : "off",
                      secs, r.stats.inductionAigNodes,
                      static_cast<unsigned long long>(r.stats.inv.candidates),
                      static_cast<unsigned long long>(r.stats.inv.certified),
                      static_cast<unsigned long long>(r.stats.inv.rounds),
                      sec::verdictName(r.verdict));
          report.beginRow("inv_matrix")
              .field("design", c.name)
              .field("invariants", invariants)
              .field("slice", slice)
              .field("seconds", secs)
              .field("inductionAigNodes", r.stats.inductionAigNodes)
              .field("invCandidates", r.stats.inv.candidates)
              .field("invCertified", r.stats.inv.certified)
              .field("invRounds", r.stats.inv.rounds)
              .field("invCertSeconds", r.stats.inv.certSeconds)
              .field("budgetCut", cut)
              .field("verdict", sec::verdictName(r.verdict));
          if (cut) continue;
          if (isWrapcnt) {
            // The acceptance gate: strengthening — and only strengthening
            // — flips wrapcnt from bounded to proven, in every cell.
            const sec::Verdict want = invariants
                                          ? sec::Verdict::kProvenEquivalent
                                          : sec::Verdict::kBoundedEquivalent;
            if (r.verdict != want) {
              ++invRegressions;
              std::printf("  !! INV GATE FAILED on wrapcnt (inv=%s): %s\n",
                          invariants ? "on" : "off",
                          sec::verdictName(r.verdict));
            }
            if (invariants && r.stats.inv.certified == 0) {
              ++invRegressions;
              std::printf("  !! INV GATE FAILED on wrapcnt: nothing "
                          "certified\n");
            }
          } else {
            if (!refSet) {
              ref = r.verdict;
              refSet = true;
            } else if (r.verdict != ref) {
              ++verdictMismatches;
              std::printf("  !! VERDICT CHANGED in inv matrix on %s\n",
                          c.name);
            }
          }
        }
      }
    }
    std::printf("(certified invariants carry their own SAT certificates — "
                "sound from any start\n state — so strengthening may only "
                "upgrade bounded to proven, never flip a\n verdict; gate "
                "failures: %u, must be 0)\n\n",
                invRegressions);
  }

  // --- Part 1f: bound sweep -------------------------------------------------
  //
  // The miter sweeps on demand: each phase first runs a capped unswept
  // probe, and the first probe that runs out moves the check to the sweep
  // pipeline, where each BMC depth sweeps only the nodes its frame added, in
  // a frame-local solver, and a delta equal to an earlier one (in BMC or
  // induction) replays the check's frame cache, so the per-depth delta is
  // constant and each distinct one is swept once; the per-depth rows show
  // what still grows with the bound and what the probe spent.  Each
  // design runs at k = 1, 2, 4, 8 with the layers on (the default) and off
  // (fraig off, under a conflict + propagation cap that
  // reports INCONCLUSIVE where it binds — gcd_breakif's off arm needs ~733k
  // conflicts at k = 1).  Gate: every completed off arm agrees with the on
  // arm on the verdict and on the failing transaction, and gcd_breakif's
  // on arm at k = 4 replays at least one depth from the frame cache (its
  // depths add identical deltas; a change to the unroller's node order
  // could otherwise turn the cache off silently), and makes no fraig SAT
  // call at depth >= 2 or in induction (every such delta repeats an earlier
  // one, so a sweep there means a frame was swept twice).  A second gate:
  // conv_win's BMC makes no fraig SAT call at any bound up to k = 4 (its
  // probe decides each of those depths, so a sweep there means the probe
  // stopped deciding it; at k = 8 the unswept solve of depth 5 outgrows the
  // probe cap and the check switches by design).  The smoke run keeps
  // gcd_breakif at k = 4 and the other designs at k = 1, 2.
  unsigned memoRegressions = 0;
  unsigned sweepRegressions = 0;
  unsigned probeRegressions = 0;
  {
    struct SweepCase {
      const char* name;
      std::function<std::shared_ptr<sec::SecProblem>(ir::Context&)> make;
    };
    std::vector<SweepCase> sweepCases = {
        {"gcd_breakif",
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::GcdSecSetup>(
               designs::makeGcdBreakIfSecProblem(ctx)));
         }},
        {"conv_win",
         [](ir::Context& ctx) {
           return hold(std::make_shared<ConvWinSetup>(makeConvWinProblem(ctx)));
         }},
        {"fpadd8_safe",
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::FpAddSecSetup>(
               designs::makeFpAddSecProblem(ctx, fp::Format::minifloat(),
                                            /*constrainToSafeBand=*/true)));
         }},
        {"fir",
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::FirSecSetup>(
               designs::makeFirSecProblem(ctx, designs::FirBug::kNone)));
         }},
        // A real bug, so failing-transaction parity is not vacuous.
        {"fir_coef",
         [](ir::Context& ctx) {
           return hold(std::make_shared<designs::FirSecSetup>(
               designs::makeFirSecProblem(ctx,
                                          designs::FirBug::kWrongCoefficient)));
         }},
    };
    const std::vector<unsigned> bounds =
        smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
    constexpr unsigned kMemoBound = 4;
    std::uint64_t gcdMemoHits = 0;
    std::uint64_t gcdLateSweepCalls = 0;  // depth >= 2 and induction
    const unsigned detailBound = bounds.back();
    const std::int64_t offConflicts = smoke ? 10000 : 100000;
    const std::int64_t offPropagations = smoke ? 2000000 : 20000000;

    std::printf("--- bound sweep: incremental miter, layers on vs off "
                "(off arm capped at %lldk conflicts / %lldM props) ---\n",
                static_cast<long long>(offConflicts / 1000),
                static_cast<long long>(offPropagations / 1000000));
    std::printf("%-12s %2s %8s %8s %8s %8s  %-18s %-18s %s\n", "design", "k",
                "on(s)", "fraig(s)", "solve(s)", "off(s)", "on verdict",
                "off verdict", "fail@");
    std::vector<std::string> detail;
    for (const SweepCase& c : sweepCases) {
      const bool gcd = std::string(c.name) == "gcd_breakif";
      for (const unsigned k :
           smoke && gcd ? std::vector<unsigned>{kMemoBound} : bounds) {
        sec::SecResult arms[2];
        double secs[2] = {0, 0};
        bool cut[2] = {false, false};
        for (const int on : {1, 0}) {
          ir::Context ctx;
          auto problem = c.make(ctx);
          sec::SecOptions o;
          o.boundTransactions = k;
          o.fraig = on != 0;
          o.bmcBudget.maxConflicts = on ? 2000000 : offConflicts;
          o.bmcBudget.maxPropagations = on ? 0 : offPropagations;
          o.inductionBudget = o.bmcBudget;
          const auto t0 = Clock::now();
          arms[on] = sec::checkEquivalence(*problem, o);
          secs[on] = secsSince(t0);
          cut[on] = arms[on].stats.induction.budgetExhausted ||
                    sumPhases(arms[on].stats, [](const sec::PhaseStats& p) {
                      return static_cast<int>(p.budgetExhausted);
                    }) > 0;
        }
        const sec::SecResult& r = arms[1];
        if (std::string(c.name) == "conv_win" && k <= kMemoBound) {
          std::uint64_t calls = 0;
          for (const sec::PhaseStats& p : r.stats.bmcTransactions)
            calls += p.fraigSatCalls;
          if (calls > 0) {
            ++probeRegressions;
            std::printf("  !! conv_win swept in BMC at k=%u: %llu fraig SAT "
                        "calls, must be 0\n",
                        k, static_cast<unsigned long long>(calls));
          }
        }
        if (gcd && k == kMemoBound) {
          gcdMemoHits = r.stats.fraigMemoHits;
          gcdLateSweepCalls = r.stats.induction.fraigSatCalls;
          for (std::size_t t = 2; t < r.stats.bmcTransactions.size(); ++t)
            gcdLateSweepCalls += r.stats.bmcTransactions[t].fraigSatCalls;
        }
        const double fr = r.stats.fraigTimeMs * 1e-3;
        const double solve = sumPhases(
            r.stats, [](const sec::PhaseStats& p) { return p.seconds; });
        char fail[16] = "-";
        if (r.cex)
          std::snprintf(fail, sizeof fail, "%u", r.cex->failingTransaction);
        std::printf("%-12s %2u %8.3f %8.3f %8.3f %8.3f  %-18s %-18s %s\n",
                    c.name, k, secs[1], fr, solve, secs[0],
                    sec::verdictName(r.verdict),
                    sec::verdictName(arms[0].verdict), fail);
        report.beginRow("bound_sweep")
            .field("design", c.name)
            .field("bound", k)
            .field("onSeconds", secs[1])
            .field("fraigSeconds", fr)
            .field("solveSeconds", solve)
            .field("offSeconds", secs[0])
            .field("onVerdict", sec::verdictName(r.verdict))
            .field("offVerdict", sec::verdictName(arms[0].verdict))
            .field("offBudgetCut", cut[0]);
        // Per-depth cost of the on arm; the delta is what each depth added.
        auto depthRow = [&](const std::string& depth,
                            const sec::PhaseStats& p) {
          report.beginRow("bound_sweep_depth")
              .field("design", c.name)
              .field("bound", k)
              .field("depth", depth)
              .field("fraigSeconds", p.fraigTimeMs * 1e-3)
              .field("solveSeconds", p.seconds)
              .field("deltaNodes", p.fraigNodesBefore)
              .field("sweptNodes", p.fraigNodesAfter)
              .field("fraig_memo_hits", p.fraigMemoHits)
              .field("fraig_sat_calls", p.fraigSatCalls)
              .field("probe_conflicts", p.probeConflicts)
              .field("probe_propagations", p.probePropagations);
          if (k != detailBound) return;
          char line[200];
          std::snprintf(line, sizeof line,
                        "%-12s %5s %8.3f %8.3f %10zu %10zu %10llu %6llu "
                        "%8llu %9llu",
                        c.name, depth.c_str(), p.fraigTimeMs * 1e-3, p.seconds,
                        p.fraigNodesBefore, p.fraigNodesAfter,
                        static_cast<unsigned long long>(p.fraigMemoHits),
                        static_cast<unsigned long long>(p.fraigSatCalls),
                        static_cast<unsigned long long>(p.probeConflicts),
                        static_cast<unsigned long long>(p.probePropagations));
          detail.emplace_back(line);
        };
        for (std::size_t t = 0; t < r.stats.bmcTransactions.size(); ++t)
          depthRow(std::to_string(t), r.stats.bmcTransactions[t]);
        if (r.stats.inductionAttempted) depthRow("ind", r.stats.induction);
        // The gate: a completed off arm must agree on verdict and depth.
        if (cut[0] || cut[1]) continue;
        const bool sameFail =
            r.cex.has_value() == arms[0].cex.has_value() &&
            (!r.cex || r.cex->failingTransaction ==
                           arms[0].cex->failingTransaction);
        if (r.verdict != arms[0].verdict || !sameFail) {
          ++verdictMismatches;
          std::printf("  !! LAYERS CHANGED the verdict or failing depth on "
                      "%s at k=%u\n",
                      c.name, k);
        }
      }
    }
    std::printf("\nper depth at k=%u, layers on (delta = AND nodes the "
                "depth added to the miter):\n",
                detailBound);
    std::printf("%-12s %5s %8s %8s %10s %10s %10s %6s %8s %9s\n", "design",
                "depth", "fraig(s)", "solve(s)", "delta", "swept",
                "fraig_memo", "calls", "probe_c", "probe_p");
    for (const std::string& line : detail) std::printf("%s\n", line.c_str());
    if (gcdMemoHits == 0) ++memoRegressions;
    if (gcdLateSweepCalls > 0) ++sweepRegressions;
    std::printf("(verdict and failing-transaction parity are part of the "
                "mismatch count above; swept = delta AND nodes left after\n"
                " merging, fraig_memo = sweeps replayed from the frame "
                "cache, calls = fraig SAT calls,\n probe_c/probe_p = the "
                "unswept probe's conflicts/propagations; delta and swept are "
                "0 where the probe decided;\n gcd_breakif at k=%u "
                "replayed %llu, must be > 0,\n"
                " and made %llu fraig SAT calls at depth >= 2 and in "
                "induction, must be 0;\n conv_win BMC bounds <= %u that "
                "swept: %u, must be 0)\n\n",
                kMemoBound, static_cast<unsigned long long>(gcdMemoHits),
                static_cast<unsigned long long>(gcdLateSweepCalls),
                kMemoBound, probeRegressions);
  }

  // --- Part 2: strash reserve + hash mixing ---------------------------------
  {
    const std::size_t chain = smoke ? 20000 : 1000000;
    std::printf("--- Aig::reserve + strash mixing (xor chain, %zu steps) "
                "---\n",
                chain);
    for (const bool reserve : {false, true}) {
      aig::Aig a;
      if (reserve) a.reserve(3 * chain + 4);
      const auto t0 = Clock::now();
      aig::Lit acc = a.makeInput("x");
      const aig::Lit y = a.makeInput("y");
      for (std::size_t i = 0; i < chain; ++i) acc = a.makeXor(acc, y);
      const double secs = secsSince(t0);
      std::printf("  %-12s %8.3fs  nodes=%-9zu buckets=%zu\n",
                  reserve ? "reserved" : "growing", secs, a.numNodes(),
                  a.strashBucketCount());
      report.beginRow("strash_reserve")
          .field("reserved", reserve)
          .field("seconds", secs)
          .field("nodes", a.numNodes())
          .field("buckets", a.strashBucketCount());
    }
    std::printf("  (reserve removes every mid-build rehash; splitmix64 "
                "mixing keeps probe chains O(1))\n\n");
  }

  // --- Part 3: structural aliasing detail (FIR induction) -------------------
  std::printf("inductive-step cost for the FIR block (7 coupling "
              "invariants):\n");
  std::printf("  %-34s %10s %14s\n", "invariant handling", "time", "conflicts");
  for (bool structural : {true, false}) {
    ir::Context ctx;
    auto setup = designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
    sec::SecOptions o;
    o.boundTransactions = 2;
    o.tryInduction = true;
    o.structuralAliasing = structural;
    if (smoke) {
      // The CNF arm takes tens of seconds at full depth; a conflict budget
      // keeps the smoke run short (the cut-off shows as bounded-equivalent
      // instead of proven).
      o.bmcBudget.maxConflicts = 2000;
      o.inductionBudget.maxConflicts = 2000;
    }
    const auto t0 = Clock::now();
    auto r = sec::checkEquivalence(*setup.problem, o);
    const double secs = secsSince(t0);
    std::printf("  %-34s %9.3fs %14llu   -> %s%s\n",
                structural ? "structural (shared variables)"
                           : "CNF equality constraints",
                secs, static_cast<unsigned long long>(r.stats.satConflicts),
                sec::verdictName(r.verdict),
                r.stats.induction.budgetExhausted ? " (budget cut-off)" : "");
    report.beginRow("aliasing_detail")
        .field("structural", structural)
        .field("seconds", secs)
        .field("conflicts", r.stats.satConflicts)
        .field("verdict", sec::verdictName(r.verdict));
  }
  std::printf("  (identical verdicts; the structural form is what makes "
              "datapath induction scale)\n\n");

  // --- Part 4: mutation kill matrix ------------------------------------------
  const rtl::Module golden = designs::makeFirRtl(designs::FirBug::kNone);
  const std::size_t allSites = rtl::countMutationSites(golden);
  const std::size_t sites = smoke && allSites > 4 ? 4 : allSites;
  std::printf("mutation study: %zu single-edit mutants of the FIR RTL\n",
              sites);

  const auto stimulus =
      workload::makeSampleStream(smoke ? 200 : 2000, 0xabl / 1);
  std::vector<std::int8_t> sx;
  for (const auto& s : stimulus)
    sx.push_back(static_cast<std::int8_t>(s.toInt64()));
  const auto goldenOut = designs::firGoldenInt(sx);

  unsigned secKills = 0, cosimKills = 0, masked = 0, disagreements = 0;
  double secTime = 0, cosimTime = 0;
  for (std::size_t i = 0; i < sites; ++i) {
    const auto mutant = rtl::mutate(golden, i);
    // cosim: run the realistic stream, compare against the golden model.
    auto t0 = Clock::now();
    cosim::WrappedRtl dut(mutant->module, cosim::StreamPorts{});
    bool cosimKilled = false;
    const auto outs = dut.run(stimulus);
    for (std::size_t k = 0; k < outs.size() && k < goldenOut.size(); ++k) {
      if (outs[k].value !=
          bv::BitVector::fromInt(designs::kFirAccWidth, goldenOut[k])) {
        cosimKilled = true;
        break;
      }
    }
    cosimTime += secsSince(t0);
    // SEC: golden SLM vs mutant RTL.
    t0 = Clock::now();
    ir::Context ctx;
    auto slm = designs::makeFirSlmTs(ctx);
    auto rtlTs = rtl::lowerToTransitionSystem(mutant->module, ctx, "r.");
    sec::SecProblem p(ctx, slm, 1, rtlTs, 1);
    ir::NodeRef v = p.declareTxnVar("sample", 8);
    p.bindInput(sec::Side::kSlm, "s.in", 0, v);
    p.bindInput(sec::Side::kRtl, "r.in_data", 0, v);
    p.bindInput(sec::Side::kRtl, "r.in_valid", 0, ctx.one(1));
    p.checkOutputs("out", 0, "out_data", 0);
    p.checkOutputs("valid", 0, "out_valid", 0);  // the handshake, too
    ir::NodeRef warm = slm.findState("s.warm")->current;
    for (unsigned t = 1; t < designs::kFirTaps; ++t) {
      const auto* rs = rtlTs.findState("r.x" + std::to_string(t));
      if (rs != nullptr)
        p.addCouplingInvariant(ctx.eq(
            slm.findState("s.x" + std::to_string(t))->current, rs->current));
      const auto* rv = rtlTs.findState("r.v" + std::to_string(t));
      if (rv != nullptr)
        p.addCouplingInvariant(
            ctx.eq(rv->current, ctx.uge(warm, ctx.constantUint(3, t))));
    }
    auto r = sec::checkEquivalence(p, {.boundTransactions = 8});
    secTime += secsSince(t0);
    const bool secKilled = r.verdict == sec::Verdict::kNotEquivalent;
    secKills += secKilled;
    cosimKills += cosimKilled;
    if (!secKilled && !cosimKilled) ++masked;
    if (cosimKilled && !secKilled) {
      ++disagreements;  // would be an engine soundness bug
      std::printf("  !! DISAGREEMENT on %s\n", mutant->description.c_str());
    }
  }
  std::printf("  %-28s %5u / %zu kills   (%.2fs total)\n",
              "SEC (no testbench)", secKills, sites, secTime);
  char cosimLabel[40];
  std::snprintf(cosimLabel, sizeof cosimLabel, "cosim (%zu-sample stream)",
                stimulus.size());
  std::printf("  %-28s %5u / %zu kills   (%.2fs total)\n", cosimLabel,
              cosimKills, sites, cosimTime);
  std::printf("  functionally masked mutants : %u\n", masked);
  std::printf("  soundness disagreements     : %u (must be 0)\n",
              disagreements);
  report.beginRow("mutation_matrix")
      .field("sites", sites)
      .field("secKills", secKills)
      .field("cosimKills", cosimKills)
      .field("masked", masked)
      .field("disagreements", disagreements)
      .field("secSeconds", secTime)
      .field("cosimSeconds", cosimTime);
  // Machine-checkable health of the whole run: every invariant the tables
  // above assert in prose, in one row.
  report.beginRow("summary")
      .field("verdictMismatches", verdictMismatches)
      .field("sliceRegressions", sliceRegressions)
      .field("memoRegressions", memoRegressions)
      .field("sweepRegressions", sweepRegressions)
      .field("probeRegressions", probeRegressions)
      .field("slice_states_severed", severedTotal)
      .field("slice_seq_constants", seqConstantsTotal)
      .field("invRegressions", invRegressions)
      .field("invCertified", invCertifiedTotal)
      .field("disagreements", disagreements);
  return report.write() && disagreements == 0 && verdictMismatches == 0 &&
                 sliceRegressions == 0 &&
                 invRegressions == 0 && memoRegressions == 0 &&
                 sweepRegressions == 0 && probeRegressions == 0
             ? 0
             : 1;
}
