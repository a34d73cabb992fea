#include "designs/histo.h"

#include "rtl/lower.h"

namespace dfv::designs {

ir::TransitionSystem makeHistoSlmTs(ir::Context& ctx) {
  ir::TransitionSystem ts(ctx, "histo_slm");
  const unsigned w = kHistoCountWidth;
  ir::NodeRef cap = ctx.constantUint(w, kHistoCap);
  std::vector<ir::NodeRef> samples(kHistoSamples);
  for (unsigned i = 0; i < kHistoSamples; ++i)
    samples[i] = ts.addInput("s.b" + std::to_string(i), kHistoIdxWidth);
  for (unsigned j = 0; j < kHistoBins; ++j) {
    ir::NodeRef bin = ts.addState("s.bin" + std::to_string(j), w, 0);
    ir::NodeRef jConst = ctx.constantUint(kHistoIdxWidth, j);
    // Same step shape as one RTL cycle: hit ? saturating increment : hold.
    ir::NodeRef acc = bin;
    for (unsigned i = 0; i < kHistoSamples; ++i) {
      ir::NodeRef inc =
          ctx.mux(ctx.eq(acc, cap), cap, ctx.add(acc, ctx.one(w)));
      acc = ctx.mux(ctx.eq(samples[i], jConst), inc, acc);
    }
    ts.setNext(bin, acc);
    ts.addOutput("count" + std::to_string(j), bin);
  }
  return ts;
}

rtl::Module makeHistoRtl() {
  const unsigned w = kHistoCountWidth;
  rtl::Module m("histo");
  rtl::NetId b = m.addInput("b", kHistoIdxWidth);
  rtl::NetId cap = m.constantUint(w, kHistoCap);
  for (unsigned j = 0; j < kHistoBins; ++j) {
    rtl::NetId bin = m.addDff("bin" + std::to_string(j), w, 0);
    rtl::NetId hit = m.opEq(b, m.constantUint(kHistoIdxWidth, j));
    rtl::NetId inc =
        m.opMux(m.opEq(bin, cap), cap, m.opAdd(bin, m.constantUint(w, 1)));
    m.connectDff(bin, m.opMux(hit, inc, bin));
    m.addOutput("count" + std::to_string(j), bin);
  }
  return m;
}

HistoSecSetup makeHistoSecProblem(ir::Context& ctx) {
  HistoSecSetup setup;
  setup.slm = std::make_unique<ir::TransitionSystem>(makeHistoSlmTs(ctx));
  setup.rtl = std::make_unique<ir::TransitionSystem>(
      rtl::lowerToTransitionSystem(makeHistoRtl(), ctx, "r."));
  setup.problem = std::make_unique<sec::SecProblem>(
      ctx, *setup.slm, 1, *setup.rtl, kHistoSamples);
  sec::SecProblem& p = *setup.problem;
  for (unsigned i = 0; i < kHistoSamples; ++i) {
    ir::NodeRef v = p.declareTxnVar("b" + std::to_string(i), kHistoIdxWidth);
    p.bindInput(sec::Side::kSlm, "s.b" + std::to_string(i), 0, v);
    p.bindInput(sec::Side::kRtl, "r.b", i, v);
  }
  for (unsigned j = 0; j < kHistoBins; ++j) {
    const std::string n = std::to_string(j);
    p.checkOutputs("count" + n, 0, "count" + n, 0);
    p.addCouplingInvariant(
        ctx.eq(setup.slm->findState("s.bin" + n)->current,
               setup.rtl->findState("r.bin" + n)->current));
  }
  // Industrial RTL carries observability state the SLM never models; histo's
  // RTL side gets a debug-capture block to stand in for it.  The capture
  // enable resets disarmed and can only be cleared, so the ternary fixpoint
  // proves it stuck at 0, and the capture registers it gates feed only the
  // unchecked dbg_* outputs, so the COI pass severs them — none of it may
  // appear in the BMC or induction graphs with SecOptions::slice on
  // (bench_sec_ablation measures the reduction; this is deliberately the
  // shape dfv::slice exists for).  Added after lowering so the rtl::Module
  // used by simulation, Verilog emission and cosim stays untouched.
  {
    ir::TransitionSystem& r = *setup.rtl;
    const unsigned w = kHistoCountWidth;
    ir::NodeRef b = r.findInput("r.b");
    ir::NodeRef en = r.addState("r.dbg_en", 1, 0);
    // Disarm on any all-zero sample; never re-arm.  Ternary: and(0, X) = 0.
    r.setNext(en, ctx.bitAnd(en, ctx.redOr(b)));
    ir::NodeRef cap = ctx.constantUint(w, kHistoCap);
    // Saturating count of samples seen while armed.
    ir::NodeRef total = r.addState("r.dbg_total", w, 0);
    ir::NodeRef inc =
        ctx.mux(ctx.eq(total, cap), cap, ctx.add(total, ctx.one(w)));
    r.setNext(total, ctx.mux(en, inc, total));
    // Running min/max and last-value capture, all gated by the enable.
    ir::NodeRef lo = r.addState("r.dbg_min", w, kHistoCap);
    ir::NodeRef hi = r.addState("r.dbg_max", w, 0);
    ir::NodeRef bw = ctx.zext(b, w);
    r.setNext(lo, ctx.mux(ctx.bitAnd(en, ctx.ult(bw, lo)), bw, lo));
    r.setNext(hi, ctx.mux(ctx.bitAnd(en, ctx.ult(hi, bw)), bw, hi));
    ir::NodeRef last = r.addState("r.dbg_last", kHistoIdxWidth, 0);
    r.setNext(last, ctx.mux(en, b, last));
    // Free-running sample accumulator: NOT gated by the enable, so it is no
    // sequential constant — only the cone-of-influence pass removes it.
    ir::NodeRef sum = r.addState("r.dbg_sum", w, 0);
    r.setNext(sum, ctx.add(sum, ctx.zext(b, w)));
    r.addOutput("dbg_sum", sum);
    r.addOutput("dbg_total", total);
    r.addOutput("dbg_range", ctx.concat(hi, lo));
    r.addOutput("dbg_last", last);
  }
  return setup;
}

}  // namespace dfv::designs
