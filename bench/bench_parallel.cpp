// PAR — parallel plan execution (DESIGN.md §12).
//
// One table, scaling: one multi-block plan run serially and on a
// core::ParallelExecutor at 2/4/8 threads (the calling thread included, as
// PlanReport::workers counts them): wall time, blocks/sec, speedup vs
// serial.  Thread scaling is a HARDWARE claim: the printed host core
// count bounds what any run can show (a 1-core container shows ~1x and that
// is the correct, honest result there).

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

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "parallel");
  const unsigned hostCores = std::thread::hardware_concurrency();
  std::printf("=== PAR: parallel plan execution ===\n\n");
  std::printf("host hardware_concurrency: %u%s\n\n", hostCores,
              hostCores <= 1 ? "  (single core: expect ~1x scaling)" : "");
  if (smoke) std::printf("(--smoke: tiny parameters, no timing claims)\n\n");

  // ----- worker scaling -----------------------------------------------------
  const unsigned copies = smoke ? 1 : 3;       // blocks = 3 * copies
  const unsigned firBound = smoke ? 2 : 4;
  std::printf("--- plan throughput: %u independent blocks ---\n",
              3 * copies);
  std::printf("%-8s %10s %12s %9s\n", "workers", "seconds", "blocks/sec",
              "speedup");
  double serialSecs = 0.0;
  const auto threadCounts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  for (unsigned t : threadCounts) {  // 1 = serial (no executor)
    core::ResilientRunner runner = makeScalingPlan(copies, firBound);
    // The calling thread runs blocks too, so t threads need t - 1 more.
    std::unique_ptr<core::ParallelExecutor> exec;
    if (t > 1) {
      exec = std::make_unique<core::ParallelExecutor>(t - 1);
      runner.setExecutor(exec.get());
    }
    const auto t0 = Clock::now();
    const core::PlanReport pr = runner.runAll();
    const double secs = secsSince(t0);
    if (!exec) serialSecs = secs;
    const double rate = static_cast<double>(pr.blocks.size()) / secs;
    const double speedup = serialSecs / secs;
    std::printf("%-8s %10.3f %12.1f %8.2fx\n",
                exec ? std::to_string(pr.workers).c_str() : "serial", secs,
                rate, speedup);
    if (!pr.allPassed()) std::printf("  !! plan did not pass\n");
    report.beginRow("scaling")
        .field("workers", pr.workers)
        .field("blocks", pr.blocks.size())
        .field("seconds", secs)
        .field("blocks_per_sec", rate)
        .field("speedup", speedup)
        .field("all_passed", pr.allPassed());
  }
  return report.write() ? 0 : 1;
}
