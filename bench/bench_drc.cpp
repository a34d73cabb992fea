// CLM-DRC — static design-rule checking as a pre-verification gate.
//
// The paper's §4 guidelines are design rules: follow them and the formal
// flow works, break them and it silently degrades.  This experiment runs
// dfv::drc over the whole design suite and reports three things:
//
//   1. the seed matrix — every reference pair must come out clean (the
//      suite itself follows the guidelines);
//   2. the mutant/bug matrix — per-rule hits over the 16 first FIR netlist
//      mutants and the crafted buggy variants, next to the SEC verdict, to
//      show what static checking catches before any solver runs (and,
//      honestly, what only SEC can catch);
//   3. the prediction check — DRC flags the breakIf gcd's accumulated
//      guards as unmergeable (sec-guard-accumulation); running both gcd
//      problems through the prover confirms the flagged shape is the slow
//      one, on the same axis bench_sec_ablation measures.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/macpipe.h"
#include "designs/memsys.h"
#include "drc/drc.h"
#include "rtl/lower.h"
#include "rtl/mutate.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string firedList(const drc::DrcReport& r) {
  std::string out;
  for (drc::Rule rule : r.firedRules()) {
    if (!out.empty()) out += ",";
    out += drc::ruleName(rule);
  }
  return out.empty() ? "-" : out;
}

void printRow(const std::string& name, const drc::DrcReport& r) {
  std::printf("%-22s %5u %5u %5u  %-5s  %s\n", name.c_str(), r.errors(),
              r.warnings(), r.count(drc::Severity::kInfo),
              r.clean() ? "clean" : "DIRTY", firedList(r).c_str());
}

/// Runs `sec::checkEquivalence` with per-solve conflict/propagation caps so
/// an unmergeable miter cannot hang the bench: past the caps the engine
/// interrupts itself and the inconclusive verdict is the measurement (the
/// conditioned twin finishes within a few conflicts, so exhausting the caps
/// is a >1000x slowdown).  Caps, never wall clock, so the verdict is a
/// machine-independent fact (CLAUDE.md).  This used to need a forked child
/// and SIGKILL.
struct BudgetedSec {
  double seconds = 0.0;
  bool budgetExhausted = false;
  sec::Verdict verdict = sec::Verdict::kBoundedEquivalent;
};

BudgetedSec runSecWithBudget(const sec::SecProblem& problem,
                             const sec::SecOptions& options,
                             std::uint64_t maxConflicts,
                             std::uint64_t maxPropagations) {
  sec::SecOptions o = options;
  o.bmcBudget.maxConflicts = maxConflicts;
  o.bmcBudget.maxPropagations = maxPropagations;
  o.inductionBudget = o.bmcBudget;
  const auto t0 = Clock::now();
  const auto r = sec::checkEquivalence(problem, o);
  BudgetedSec out;
  out.seconds = secsSince(t0);
  out.verdict = r.verdict;
  out.budgetExhausted = r.verdict == sec::Verdict::kInconclusive ||
                        r.stats.induction.budgetExhausted;
  return out;
}

/// The conv window SEC problem exactly as the verification plan builds it.
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

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "drc");
  std::printf("=== CLM-DRC: design-rule checking across the suite ===\n\n");
  if (smoke)
    std::printf("(--smoke: few mutants, tiny SEC budget, no timing "
                "claims)\n\n");

  // ----- part 1: every seed pair must be clean ----------------------------
  std::printf("--- seed matrix (rule hits per reference design) ---\n");
  std::printf("%-22s %5s %5s %5s  %-5s  %s\n", "design", "err", "warn",
              "info", "", "fired rules");
  unsigned dirtySeeds = 0;
  auto seedRow = [&](const std::string& name, const drc::DrcReport& r) {
    printRow(name, r);
    if (!r.clean()) ++dirtySeeds;
  };
  {
    ir::Context ctx;
    auto fir = designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
    const auto rtlMod = designs::makeFirRtl(designs::FirBug::kNone);
    drc::DrcInputs in;
    in.addModule("fir/rtl", rtlMod);
    auto r = drc::runDrc(*fir.problem, "fir");
    r.merge(drc::runDrc(in));
    seedRow("fir", r);
  }
  {
    ir::Context ctx;
    auto cw = makeConvWinProblem(ctx);
    const auto slmFn =
        designs::makeConvWindowSlm(designs::ConvKernel::sharpen());
    const auto rtlMod =
        designs::makeConvWindowRtl(designs::ConvKernel::sharpen());
    drc::DrcInputs in;
    in.addSlm("conv_win/slm", slmFn).addModule("conv_win/rtl", rtlMod);
    auto r = drc::runDrc(*cw.problem, "conv_win");
    r.merge(drc::runDrc(in));
    seedRow("conv_win", r);
  }
  {
    const auto mod = designs::makeConvRtl(64, designs::ConvKernel::sharpen());
    drc::DrcInputs in;
    in.addModule("conv_stream/rtl", mod);
    seedRow("conv_stream", drc::runDrc(in));
  }
  {
    ir::Context ctx;
    auto gcd = designs::makeGcdSecProblem(ctx);
    const auto slmFn = designs::makeGcdConditioned();
    const auto rtlMod = designs::makeGcdRtl();
    drc::DrcInputs in;
    in.addSlm("gcd/slm", slmFn).addModule("gcd/rtl", rtlMod);
    auto r = drc::runDrc(*gcd.problem, "gcd");
    r.merge(drc::runDrc(in));
    seedRow("gcd", r);
  }
  {
    ir::Context ctx;
    auto fp = designs::makeFpAddSecProblem(ctx, fp::Format::minifloat(),
                                           true);
    seedRow("fpadd", drc::runDrc(*fp.problem, "fpadd"));
  }
  {
    const auto mod = designs::makeMacPipeRtl();
    drc::DrcInputs in;
    in.addModule("macpipe/rtl", mod);
    seedRow("macpipe", drc::runDrc(in));
  }
  {
    const auto mod = designs::makeCacheRtl();
    drc::DrcInputs in;
    in.addModule("memsys/rtl", mod);
    seedRow("memsys", drc::runDrc(in));
  }
  std::printf("seeds dirty: %u (must be 0)\n\n", dirtySeeds);
  report.beginRow("seed_matrix").field("dirtySeeds", dirtySeeds);

  // ----- part 2: mutants and crafted bugs ---------------------------------
  std::printf("--- mutant/bug matrix (FIR mutants + injected bugs) ---\n");
  std::printf("%-38s %-7s %-9s  %s\n", "variant", "drc", "sec",
              "fired rules");
  unsigned drcFlagged = 0, secKilled = 0, total = 0;
  auto variantRow = [&](const std::string& name, const drc::DrcReport& r,
                        const sec::SecResult& sr) {
    const bool flagged = !r.clean();
    const bool killed = sr.verdict == sec::Verdict::kNotEquivalent;
    ++total;
    drcFlagged += flagged;
    secKilled += killed;
    std::printf("%-38s %-7s %-9s  %s\n", name.c_str(),
                flagged ? "FLAG" : "clean",
                killed ? "killed" : sec::verdictName(sr.verdict),
                firedList(r).c_str());
  };
  const rtl::Module firSeed = designs::makeFirRtl(designs::FirBug::kNone);
  const std::size_t sites = rtl::countMutationSites(firSeed);
  const std::size_t mutantCap = smoke ? 2 : 16;
  const std::size_t mutants = sites < mutantCap ? sites : mutantCap;
  for (std::size_t i = 0; i < mutants; ++i) {
    auto mut = rtl::mutate(firSeed, i);
    DFV_CHECK(mut.has_value());
    ir::Context ctx;
    auto setup = designs::makeFirSecProblemFor(ctx, mut->module);
    auto r = drc::runDrc(*setup.problem, "fir_mut" + std::to_string(i));
    drc::DrcInputs in;
    in.addModule("fir_mut" + std::to_string(i) + "/rtl", mut->module);
    r.merge(drc::runDrc(in));
    // Bound must cover the warm-up (kFirTaps samples) or mutations in the
    // older taps sit beyond the unrolled window and survive BMC.
    const auto sr =
        sec::checkEquivalence(*setup.problem,
                              {.boundTransactions = designs::kFirTaps + 2});
    variantRow("mut" + std::to_string(i) + ": " + mut->description, r, sr);
  }
  for (designs::FirBug bug : {designs::FirBug::kNarrowAccumulator,
                              designs::FirBug::kWrongCoefficient,
                              designs::FirBug::kDroppedTap}) {
    const char* names[] = {"", "fir narrow accumulator",
                           "fir wrong coefficient", "fir dropped tap"};
    ir::Context ctx;
    auto setup = designs::makeFirSecProblem(ctx, bug);
    auto r = drc::runDrc(*setup.problem, "fir_bug");
    const auto sr =
        sec::checkEquivalence(*setup.problem,
                              {.boundTransactions = designs::kFirTaps + 2});
    variantRow(names[static_cast<int>(bug)], r, sr);
  }
  // Crafted hazards the solver cannot see: a constant-false environment
  // constraint on the SLM (SEC encodes only problem-level constraints, so
  // the assumption silently does nothing and the pair still "proves"), and
  // a dead cell (pure hygiene, no functional effect).  DRC flags both.
  {
    ir::Context ctx;
    auto setup = designs::makeFirSecProblem(ctx, designs::FirBug::kNone);
    setup.slm->addConstraint(ctx.boolConst(false));
    const auto r = drc::runDrc(*setup.problem, "fir_vacuous");
    const auto sr =
        sec::checkEquivalence(*setup.problem,
                              {.boundTransactions = designs::kFirTaps + 2});
    variantRow("fir + constant-false assumption", r, sr);
  }
  {
    ir::Context ctx;
    rtl::Module m = designs::makeFirRtl(designs::FirBug::kNone);
    m.opXor(m.inputs()[0].net, m.inputs()[0].net);  // feeds nothing
    auto setup = designs::makeFirSecProblemFor(ctx, m);
    auto r = drc::runDrc(*setup.problem, "fir_dead");
    drc::DrcInputs in;
    in.addModule("fir_dead/rtl", m);
    r.merge(drc::runDrc(in));
    const auto sr =
        sec::checkEquivalence(*setup.problem,
                              {.boundTransactions = designs::kFirTaps + 2});
    variantRow("fir + dead cell in the netlist", r, sr);
  }
  std::printf("%u variants: DRC flagged %u, SEC killed %u\n\n", total,
              drcFlagged, secKilled);
  report.beginRow("variant_matrix")
      .field("variants", total)
      .field("drcFlagged", drcFlagged)
      .field("secKilled", secKilled);

  // ----- part 3: the structural-merge prediction, confirmed ---------------
  //
  // The flagged shape is the one the solver pays for.  Since the engine
  // grew SAT sweeping, fraig steps over the cliff dynamically (~1 s vs the
  // conditioned twin's milliseconds — still the costliest proof in the
  // suite); the fraig-off arm shows the cliff the rule actually predicts:
  // the caps exhaust with no verdict.
  std::printf("--- sec-guard-accumulation: prediction vs measured SEC ---\n");
  struct GcdCase {
    const char* name;
    designs::GcdSecSetup (*make)(ir::Context&);
    bool fraig;
  };
  const GcdCase cases[] = {
      {"gcd conditioned (if-guarded body)", designs::makeGcdSecProblem, true},
      {"gcd breakIf (accumulated guards)", designs::makeGcdBreakIfSecProblem,
       true},
      {"gcd breakIf, fraig off", designs::makeGcdBreakIfSecProblem, false},
  };
  const std::uint64_t kMaxConflicts = smoke ? 2000 : 20000;
  const std::uint64_t kMaxPropagations = smoke ? 200000 : 20000000;
  std::printf("%-36s %-9s %12s %18s  %s\n", "model", "drc", "sec(s)",
              "verdict", "fired rules");
  for (const GcdCase& c : cases) {
    ir::Context ctx;
    auto setup = c.make(ctx);
    const auto r = drc::runDrc(*setup.problem, "gcd");
    sec::SecOptions o;
    o.boundTransactions = 1;
    o.fraig = c.fraig;
    const auto b =
        runSecWithBudget(*setup.problem, o, kMaxConflicts, kMaxPropagations);
    char secsStr[32];
    if (b.budgetExhausted)
      std::snprintf(secsStr, sizeof secsStr, "%.3f (cut)", b.seconds);
    else
      std::snprintf(secsStr, sizeof secsStr, "%.3f", b.seconds);
    std::printf("%-36s %-9s %12s %18s  %s\n", c.name,
                r.fired(drc::Rule::kSecGuardAccumulation) ? "FLAG" : "clean",
                secsStr, sec::verdictName(b.verdict), firedList(r).c_str());
    report.beginRow("guard_accumulation")
        .field("model", c.name)
        .field("fraig", c.fraig)
        .field("flagged", r.fired(drc::Rule::kSecGuardAccumulation))
        .field("seconds", b.seconds)
        .field("budgetExhausted", b.budgetExhausted)
        .field("verdict", sec::verdictName(b.verdict));
  }
  std::printf("\nthe flagged shape is the one the solver pays for -- the\n"
              "rule predicts bench_sec_ablation's no-merge cliff statically\n");
  return report.write() && dirtySeeds == 0 ? 0 : 1;
}
