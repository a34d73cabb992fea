// SoC-level flow: a verification plan over consistently partitioned blocks
// with incremental re-verification (§4.1 / §4.2).
//
// Registers five SLM/RTL block pairs (SEC where both sides are analyzable,
// cosim where the comparison is timing-heavy), runs the full plan, then
// simulates the paper's incremental scenario: one block's model is edited,
// and only that block is re-verified.
//
// Build & run:  ./build/examples/soc_flow

#include <cstdio>

#include "core/resilient.h"
#include "cosim/scoreboard.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/memsys.h"
#include "fp/softfloat.h"
#include "rtl/lower.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"
#include "workload/workload.h"

using namespace dfv;

namespace {

void printReport(const char* title, const core::PlanReport& report) {
  std::printf("%s\n", title);
  for (const auto& b : report.blocks) {
    std::printf("  %-10s %-5s %-7s %6.3fs  %s\n", b.block.c_str(),
                b.method == core::Method::kSec ? "SEC" : "cosim",
                b.skippedUnchanged ? "skip" : (b.passed ? "pass" : "FAIL"),
                b.seconds, b.detail.c_str());
  }
  std::printf("  => %s\n\n", report.summary().c_str());
}

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

}  // namespace

int main() {
  std::printf("== DFV SoC flow: plan, verify, edit, re-verify ==\n\n");
  // One attempt per block, no cosim fallback: a plain one-shot plan.
  core::ResilientRunner plan("demo_soc", {.maxAttempts = 1});

  // fir: SEC with coupling invariants.
  plan.addSecBlock("fir", /*digest=*/0xf1f1, {.boundTransactions = 2},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeFirSecProblem(ctx, false);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  // conv window: elaborated SLM-C vs window datapath.
  plan.addSecBlock("conv_win", 0xc0c0, {.boundTransactions = 1},
                   checkConvWindow);
  // gcd: elaborated conditioned model vs multi-cycle FSM.
  plan.addSecBlock("gcd", 0x9cd, {.boundTransactions = 1},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeGcdSecProblem(ctx);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  // fpadd: constrained SEC (the §3.1.2 technique).
  plan.addSecBlock("fpadd", 0xf9, {.boundTransactions = 1},
                   [](const sec::SecOptions& opts) {
                     ir::Context ctx;
                     auto setup = designs::makeFpAddSecProblem(
                         ctx, fp::Format::minifloat(),
                         /*constrainToSafeBand=*/true);
                     return sec::checkEquivalence(*setup.problem, opts);
                   });
  // memsys: cosim (latency varies with cache state; values must not).
  plan.addCosimBlock("memsys", 0x3e3, [](std::uint64_t /*seed*/) {
    const auto trace = workload::makeMemTrace(500, 7);
    const auto golden = designs::memGolden(trace);
    const auto run = designs::runCache(trace);
    bool ok = run.responses.size() == golden.size();
    for (std::size_t i = 0; ok && i < golden.size(); ++i)
      ok = run.responses[i] == golden[i];
    char detail[128];
    std::snprintf(detail, sizeof detail,
                  "%zu responses, %llu hits / %llu misses",
                  run.responses.size(),
                  static_cast<unsigned long long>(run.readHits),
                  static_cast<unsigned long long>(run.readMisses));
    return core::ResilientRunner::CosimOutcome{ok, detail};
  });

  printReport("[1] initial full verification (runAll):", plan.runAll());

  std::printf("[2] no edits; incremental run skips everything:\n");
  printReport("", plan.runIncremental());

  std::printf("[3] the conv window SLM is edited (digest changes);\n"
              "    incremental run re-verifies only that block:\n");
  plan.touch("conv_win", 0xc0c1);
  printReport("", plan.runIncremental());
  return 0;
}
