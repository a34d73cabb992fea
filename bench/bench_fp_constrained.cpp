// CLM-FP — reproduces §3.1.2: system-level float is full IEEE, hardware FP
// is simplified (flush-to-zero, no NaN/Inf, clamp), and "the most effective
// technique to apply sequential equivalence checking to a (SLM, RTL) design
// pair with such differences is to constrain the input space ... such that
// the differences do not show up."
//
// Series reported:
//   1. exhaustive divergence census for the 8-bit minifloat, broken down by
//      corner-case category;
//   2. SEC unconstrained: NOT-equivalent with a corner-case witness, timed;
//   3. SEC with the safe-exponent-band constraint: proven equivalent, timed;
//   4. the same pair for binary16 (16-bit) to show the technique scales.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "designs/fpadd.h"
#include "fp/softfloat.h"
#include "sec/engine.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {
double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

benchutil::JsonReport* gReport = nullptr;

void runSec(fp::Format fmt, bool constrained) {
  ir::Context ctx;
  auto setup = designs::makeFpAddSecProblem(ctx, fmt, constrained);
  const auto t0 = Clock::now();
  auto r = sec::checkEquivalence(*setup.problem, {.boundTransactions = 1});
  const double secs = secsSince(t0);
  std::printf("  %u/%u %-13s: %-20s %8.3fs  %8llu conflicts",
              fmt.exp, fmt.man, constrained ? "constrained" : "unconstrained",
              sec::verdictName(r.verdict), secs,
              static_cast<unsigned long long>(r.stats.satConflicts));
  gReport->beginRow("adder_sec")
      .field("exp", fmt.exp)
      .field("man", fmt.man)
      .field("constrained", constrained)
      .field("verdict", sec::verdictName(r.verdict))
      .field("seconds", secs)
      .field("conflicts", r.stats.satConflicts)
      .field("cexFound", r.cex.has_value());
  if (r.cex.has_value()) {
    const auto& vars = r.cex->txnVarValues[0];
    const fp::SoftFloat wa(fmt, vars[0].toUint64());
    const fp::SoftFloat wb(fmt, vars[1].toUint64());
    std::printf("  witness: %s + %s", wa.describe().c_str(),
                wb.describe().c_str());
  }
  std::printf("\n");
}
}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "fp_constrained");
  gReport = &report;
  std::printf("=== CLM-FP: IEEE SLM vs hardware-FP RTL, constrained SEC "
              "===\n\n");
  if (smoke) std::printf("(--smoke: minifloat only, no timing claims)\n\n");

  // --- divergence census (minifloat, exhaustive) ----------------------------
  const fp::Format mini = fp::Format::minifloat();
  unsigned agree = 0, diverge = 0, bySub = 0, byInfNan = 0, byOvf = 0;
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const fp::SoftFloat sa(mini, a), sb(mini, b);
      const fp::SoftFloat ieee = sa + sb;
      if (ieee.bits() == fp::hwAdd(mini, a, b)) {
        ++agree;
        continue;
      }
      ++diverge;
      if (sa.isSubnormal() || sb.isSubnormal() || ieee.isSubnormal())
        ++bySub;
      else if (sa.isInf() || sb.isInf() || sa.isNaN() || sb.isNaN() ||
               ieee.isNaN())
        ++byInfNan;
      else if (ieee.isInf())
        ++byOvf;
    }
  }
  std::printf("minifloat exhaustive census (65536 operand pairs):\n");
  std::printf("  agree: %u   diverge: %u\n", agree, diverge);
  report.beginRow("census")
      .field("agree", agree)
      .field("diverge", diverge)
      .field("bySubnormal", bySub)
      .field("byInfNan", byInfNan)
      .field("byOverflow", byOvf);
  std::printf("  divergence cause: subnormal %u, inf/nan %u, overflow %u, "
              "top-exponent-encoding %u\n\n",
              bySub, byInfNan, byOvf, diverge - bySub - byInfNan - byOvf);

  const fp::SafeBand miniBand = fp::safeExponentBand(mini);
  std::printf("SEC verdicts (constraint: exponent field in [%llu, %llu]):\n",
              static_cast<unsigned long long>(miniBand.lo),
              static_cast<unsigned long long>(miniBand.hi));
  runSec(mini, false);
  runSec(mini, true);

  if (!smoke) {
    const fp::Format half = fp::Format::binary16();
    std::printf("\nbinary16 (the technique at a production-like width):\n");
    runSec(half, false);
    runSec(half, true);
  }

  // --- the multiplier: same technique, different safe band -------------------
  std::printf("\nmultiplier (minifloat; exponent band keeps products "
              "normal):\n");
  for (bool constrained : {false, true}) {
    ir::Context ctx;
    ir::TransitionSystem slm(ctx, "slm"), rtl(ctx, "rtl");
    {
      ir::NodeRef a = slm.addInput("s.a", 8);
      ir::NodeRef b = slm.addInput("s.b", 8);
      slm.addOutput("prod", fp::buildIeeeMultiplier(ctx, mini, a, b));
      ir::NodeRef ra = rtl.addInput("r.a", 8);
      ir::NodeRef rb = rtl.addInput("r.b", 8);
      rtl.addOutput("prod", fp::buildHwMultiplier(ctx, mini, ra, rb));
    }
    sec::SecProblem p(ctx, slm, 1, rtl, 1);
    ir::NodeRef va = p.declareTxnVar("a", 8);
    ir::NodeRef vb = p.declareTxnVar("b", 8);
    p.bindInput(sec::Side::kSlm, "s.a", 0, va);
    p.bindInput(sec::Side::kSlm, "s.b", 0, vb);
    p.bindInput(sec::Side::kRtl, "r.a", 0, va);
    p.bindInput(sec::Side::kRtl, "r.b", 0, vb);
    p.checkOutputs("prod", 0, "prod", 0);
    if (constrained) {
      p.addConstraint(fp::buildExponentBandConstraint(ctx, mini, va, 5, 9));
      p.addConstraint(fp::buildExponentBandConstraint(ctx, mini, vb, 5, 9));
    }
    const auto t0 = Clock::now();
    auto r = sec::checkEquivalence(p, {.boundTransactions = 1});
    const double secs = secsSince(t0);
    std::printf("  4/3 %-13s: %-20s %8.3fs  %8llu conflicts\n",
                constrained ? "constrained" : "unconstrained",
                sec::verdictName(r.verdict), secs,
                static_cast<unsigned long long>(r.stats.satConflicts));
    report.beginRow("multiplier_sec")
        .field("constrained", constrained)
        .field("verdict", sec::verdictName(r.verdict))
        .field("seconds", secs)
        .field("conflicts", r.stats.satConflicts);
  }
  return report.write() ? 0 : 1;
}
