// FIG1 — reproduces Figure 1 of the paper (§3.1.1): "Addition is
// non-associative in finite precision arithmetic."
//
//   wire signed [7:0] a,b,c;     wire signed [7:0] a,b,c;
//   wire signed [7:0] tmp;   !=  wire signed [7:0] tmp;
//   wire signed [8:0] out;       wire signed [8:0] out;
//   assign tmp = a + b;          assign tmp = b + c;
//   assign out = tmp + c;        assign out = tmp + a;
//
// Series reported:
//   1. the figure's annotated instance (a=1, b=1, c=-1) for both groupings,
//      in the 8-bit wire arithmetic and in the int-based C model;
//   2. an exhaustive 2^24 sweep counting where the two groupings diverge in
//      8-bit arithmetic and where the int-based C model masks the overflow
//      (diverges from the wire semantics);
//   3. SEC on the (wide SLM, narrow-tmp RTL) pair producing a witness.
//
// The paper prints no numbers for this figure; the shape to reproduce is
// that the divergence exists, is common, and is invisible to an all-int
// model (§3.1.1's masking argument).

#include <cstdio>

#include "bench_util.h"
#include "bitvec/hdl_int.h"
#include "designs/fir.h"
#include "rtl/lower.h"
#include "sec/engine.h"

using namespace dfv;
using bv::Int;

namespace {

/// out = (a+b)+c with an 8-bit tmp (the left netlist of Fig 1).
int grouping1Wire(int a, int b, int c) {
  const Int<8> tmp = Int<8>(a) + Int<8>(b);
  const Int<9> out = Int<9>(tmp.value()) + Int<9>(c);
  return static_cast<int>(out.value());
}
/// out = (b+c)+a with an 8-bit tmp (the right netlist of Fig 1).
int grouping2Wire(int a, int b, int c) {
  const Int<8> tmp = Int<8>(b) + Int<8>(c);
  const Int<9> out = Int<9>(tmp.value()) + Int<9>(a);
  return static_cast<int>(out.value());
}
/// The int-based C model: every intermediate is a 32-bit int.
int groupingInt(int a, int b, int c) { return a + b + c; }

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "fig1_associativity");
  std::printf("=== FIG1: addition is non-associative in finite precision "
              "===\n\n");
  if (smoke) std::printf("(--smoke: strided sweep, no timing claims)\n\n");

  std::printf("paper's annotated instance (a=1, b=1, c=-1):\n");
  std::printf("  %-28s %8s %8s\n", "model", "(a+b)+c", "(b+c)+a");
  std::printf("  %-28s %8d %8d\n", "8-bit wire tmp (RTL)",
              grouping1Wire(1, 1, -1), grouping2Wire(1, 1, -1));
  std::printf("  %-28s %8d %8d\n", "int C model", groupingInt(1, 1, -1),
              groupingInt(1, 1, -1));

  std::printf("\nan instance where tmp overflows (a=100, b=100, c=-100):\n");
  std::printf("  %-28s %8d %8d   <- groupings diverge\n",
              "8-bit wire tmp (RTL)", grouping1Wire(100, 100, -100),
              grouping2Wire(100, 100, -100));
  std::printf("  %-28s %8d %8d   <- int masks the overflow\n", "int C model",
              groupingInt(100, 100, -100), groupingInt(100, 100, -100));

  // --- exhaustive sweep -----------------------------------------------------
  std::uint64_t groupingsDiverge = 0;
  std::uint64_t intMasksG1 = 0;
  std::uint64_t total = 0;
  const int step = smoke ? 16 : 1;
  for (int a = -128; a <= 127; a += step) {
    for (int b = -128; b <= 127; b += step) {
      for (int c = -128; c <= 127; c += step) {
        ++total;
        const int g1 = grouping1Wire(a, b, c);
        const int g2 = grouping2Wire(a, b, c);
        const int gi = groupingInt(a, b, c);
        if (g1 != g2) ++groupingsDiverge;
        if (g1 != gi) ++intMasksG1;
      }
    }
  }
  std::printf("\nexhaustive sweep of signed 8-bit a, b, c (%llu cases):\n",
              static_cast<unsigned long long>(total));
  std::printf("  groupings diverge in wire arithmetic : %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(groupingsDiverge),
              100.0 * static_cast<double>(groupingsDiverge) /
                  static_cast<double>(total));
  std::printf("  int model != wire model ((a+b)+c)    : %10llu (%.1f%%)\n",
              static_cast<unsigned long long>(intMasksG1),
              100.0 * static_cast<double>(intMasksG1) /
                  static_cast<double>(total));
  report.beginRow("sweep")
      .field("cases", total)
      .field("groupingsDiverge", groupingsDiverge)
      .field("intMasks", intMasksG1);

  // --- SEC produces a witness automatically ---------------------------------
  std::printf("\nSEC on (9-bit-wide SLM, 8-bit-tmp RTL):\n");
  ir::Context ctx;
  ir::TransitionSystem slm(ctx, "slm");
  {
    ir::NodeRef a = slm.addInput("a", 8);
    ir::NodeRef b = slm.addInput("b", 8);
    ir::NodeRef c = slm.addInput("c", 8);
    slm.addOutput("out", ctx.add(ctx.add(ctx.sext(a, 9), ctx.sext(b, 9)),
                                 ctx.sext(c, 9)));
  }
  rtl::Module rtlMod("rtl");
  {
    rtl::NetId a = rtlMod.addInput("a", 8);
    rtl::NetId b = rtlMod.addInput("b", 8);
    rtl::NetId c = rtlMod.addInput("c", 8);
    rtl::NetId tmp = rtlMod.opAdd(a, b);  // the Fig 1 narrow wire
    rtlMod.addOutput("out", rtlMod.opAdd(rtlMod.opSExt(tmp, 9),
                                         rtlMod.opSExt(c, 9)));
  }
  ir::TransitionSystem rtlTs = rtl::lowerToTransitionSystem(rtlMod, ctx, "r.");
  sec::SecProblem p(ctx, slm, 1, rtlTs, 1);
  for (const char* n : {"a", "b", "c"}) {
    ir::NodeRef v = p.declareTxnVar(n, 8);
    p.bindInput(sec::Side::kSlm, n, 0, v);
    p.bindInput(sec::Side::kRtl, std::string("r.") + n, 0, v);
  }
  p.checkOutputs("out", 0, "out", 0);
  auto r = sec::checkEquivalence(p, {.boundTransactions = 1});
  std::printf("  verdict: %s\n", sec::verdictName(r.verdict));
  if (r.cex.has_value()) {
    const auto& vars = r.cex->txnVarValues[0];
    std::printf("  witness: a=%s b=%s c=%s -> SLM %s vs RTL %s\n",
                vars[0].toSignedDecimalString().c_str(),
                vars[1].toSignedDecimalString().c_str(),
                vars[2].toSignedDecimalString().c_str(),
                r.cex->slmValue.toSignedDecimalString().c_str(),
                r.cex->rtlValue.toSignedDecimalString().c_str());
  }
  report.beginRow("sec_witness")
      .field("verdict", sec::verdictName(r.verdict))
      .field("cexFound", r.cex.has_value());
  return report.write() ? 0 : 1;
}
