// CLM-INCR — reproduces §4.1's claim: "incremental runs of sequential
// equivalence checking between SLM and RTL are much more effective in terms
// of run time and can help localize the source of any difference between
// the models quickly."
//
// Builds a 6-block verification plan over the reference designs, then
// replays a development session: a sequence of single-block edits (digest
// changes), one of which introduces a real bug.  After each edit the plan
// is verified both ways:
//   full      — re-verify every block (the "late, batch" style §4.1 warns
//               about);
//   incremental — re-verify only the edited block.
// Reports per-edit wall time for both styles, the cumulative totals, and
// the failure localization for the buggy edit.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/resilient.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/memsys.h"
#include "rtl/lower.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"
#include "workload/workload.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The fir block's runner is parameterized so an "edit" can really change
/// the model (the bug edit swaps in the narrow accumulator).
designs::FirBug gFirBug = designs::FirBug::kNone;

/// conv window: elaborated SLM-C vs the window datapath.
sec::SecResult checkConvWindow(const sec::SecOptions& opts) {
  const auto kernel = designs::ConvKernel::sharpen();
  ir::Context ctx;
  auto e = slmc::elaborate(designs::makeConvWindowSlm(kernel), ctx, "s.");
  auto rtlTs = rtl::lowerToTransitionSystem(
      designs::makeConvWindowRtl(kernel), ctx, "r.");
  sec::SecProblem p(ctx, *e.ts, 1, rtlTs, 1);
  for (unsigned i = 0; i < 9; ++i) {
    auto v = p.declareTxnVar("p" + std::to_string(i), 8);
    p.bindInput(sec::Side::kSlm, "s.p" + std::to_string(i), 0, v);
    p.bindInput(sec::Side::kRtl, "r.p" + std::to_string(i), 0, v);
  }
  p.checkOutputs("ret", 0, "pix", 0);
  return sec::checkEquivalence(p, opts);
}

core::ResilientRunner makePlan() {
  // One attempt per block, no cosim fallback: a plain one-shot plan.
  core::ResilientRunner plan("soc", {.maxAttempts = 1});
  plan.addSecBlock("fir", 1, {.boundTransactions = 4},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeFirSecProblem(ctx, gFirBug);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  plan.addSecBlock("conv_win", 1, {.boundTransactions = 1},
                   checkConvWindow);
  plan.addSecBlock("gcd", 1, {.boundTransactions = 1},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeGcdSecProblem(ctx);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  plan.addSecBlock("fpadd", 1, {.boundTransactions = 1},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeFpAddSecProblem(
                         ctx, fp::Format::minifloat(), true);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  plan.addCosimBlock("conv_stream", 1, [](std::uint64_t /*seed*/) {
    const auto kernel = designs::ConvKernel::sharpen();
    const auto img = workload::makeTestImage(64, 48, 3);
    const auto golden = designs::convGolden(img, kernel);
    std::vector<bv::BitVector> stream;
    for (auto px : img.pixels)
      stream.push_back(bv::BitVector::fromUint(8, px));
    cosim::WrappedRtl dut(designs::makeConvRtl(img.width, kernel),
                          cosim::StreamPorts{});
    const auto outs = dut.run(stream);
    bool ok = outs.size() == golden.size();
    for (std::size_t i = 0; ok && i < golden.size(); ++i)
      ok = outs[i].value.toUint64() == golden[i];
    return core::ResilientRunner::CosimOutcome{ok, "streaming vs golden"};
  });
  plan.addCosimBlock("memsys", 1, [](std::uint64_t /*seed*/) {
    const auto trace = workload::makeMemTrace(800, 4);
    const auto golden = designs::memGolden(trace);
    const auto run = designs::runCache(trace);
    bool ok = run.responses.size() == golden.size();
    for (std::size_t i = 0; ok && i < golden.size(); ++i)
      ok = run.responses[i] == golden[i];
    return core::ResilientRunner::CosimOutcome{ok, "cache vs flat array"};
  });
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "incremental_sec");
  std::printf("=== CLM-INCR: full vs incremental re-verification ===\n\n");
  if (smoke) std::printf("(--smoke: first two edits only, no timing claims)\n\n");
  // The edit script: (block, digest, description); edit 3 plants a bug.
  struct Edit {
    const char* block;
    std::uint64_t digest;
    const char* what;
    designs::FirBug firBug;
  };
  const Edit edits[] = {
      {"conv_win", 2, "retune conv kernel comments", designs::FirBug::kNone},
      {"gcd", 2, "refactor gcd SLM", designs::FirBug::kNone},
      {"fir", 2, "\"optimize\" fir accumulator (plants a bug!)",
       designs::FirBug::kNarrowAccumulator},
      {"fir", 3, "fix the fir accumulator", designs::FirBug::kNone},
      {"memsys", 2, "adjust cache fill comments", designs::FirBug::kNone},
  };

  // Baseline: initial full verification on both plans.
  core::ResilientRunner fullPlan = makePlan();
  core::ResilientRunner incrPlan = makePlan();
  gFirBug = designs::FirBug::kNone;
  auto t0 = Clock::now();
  fullPlan.runAll();
  const double initialFull = secsSince(t0);
  t0 = Clock::now();
  incrPlan.runAll();  // prime the incremental cache
  std::printf("initial full verification: %.2fs (%zu blocks)\n\n",
              initialFull, fullPlan.blockCount());

  std::printf("%-4s %-42s %10s %12s %9s  %s\n", "edit", "change", "full(s)",
              "incr(s)", "speedup", "result");
  double fullTotal = 0, incrTotal = 0;
  const std::size_t editCount = smoke ? 2 : std::size(edits);
  for (std::size_t e = 0; e < editCount; ++e) {
    const Edit& edit = edits[e];
    gFirBug = edit.firBug;
    fullPlan.touch(edit.block, edit.digest);
    incrPlan.touch(edit.block, edit.digest);

    t0 = Clock::now();
    auto fullReport = fullPlan.runAll();
    const double fullSecs = secsSince(t0);
    t0 = Clock::now();
    auto incrReport = incrPlan.runIncremental();
    const double incrSecs = secsSince(t0);
    fullTotal += fullSecs;
    incrTotal += incrSecs;

    std::string result = incrReport.allPassed() ? "all pass" : "FAIL in";
    for (const auto& b : incrReport.failingBlocks()) result += " " + b;
    std::printf("%-4zu %-42s %10.2f %12.2f %8.1fx  %s (%u reverified)\n",
                e + 1, edit.what, fullSecs, incrSecs,
                fullSecs / (incrSecs > 0 ? incrSecs : 1e-9),
                result.c_str(), incrReport.verified + incrReport.failed);
    report.beginRow("edit")
        .field("edit", e + 1)
        .field("change", edit.what)
        .field("fullSeconds", fullSecs)
        .field("incrSeconds", incrSecs)
        .field("allPassed", incrReport.allPassed())
        .field("reverified", incrReport.verified + incrReport.failed);
  }
  std::printf("\ncumulative over %zu edits: full %.2fs vs incremental %.2fs "
              "(%.1fx) -- the paper's §4.1 claim\n",
              editCount, fullTotal, incrTotal,
              fullTotal / (incrTotal > 0 ? incrTotal : 1e-9));
  report.beginRow("cumulative")
      .field("edits", editCount)
      .field("fullSeconds", fullTotal)
      .field("incrSeconds", incrTotal);
  return report.write() ? 0 : 1;
}
