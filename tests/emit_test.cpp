// Tests for the emission features: VCD tracing, Verilog generation, SLM-C
// pretty-printing, and JSON plan reports.

#include <gtest/gtest.h>

#include <sstream>

#include "core/resilient.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "designs/memsys.h"
#include "rtl/vcd.h"
#include "rtl/verilog.h"
#include "slmc/print.h"

namespace dfv {
namespace {

using bv::BitVector;

rtl::Module makeToggler() {
  rtl::Module m("toggler");
  rtl::NetId en = m.addInput("en", 1);
  rtl::NetId q = m.addDff("q", 4, 0);
  m.connectDff(q, m.opAdd(q, m.constantUint(4, 1)), en);
  m.addOutput("count", q);
  return m;
}

TEST(Vcd, HeaderAndChanges) {
  rtl::Module m = makeToggler();
  rtl::Simulator sim(m);
  std::ostringstream out;
  rtl::VcdWriter vcd(sim, out);
  vcd.addAllNamedNets();
  EXPECT_GE(vcd.netCount(), 2u);  // en + q at least
  for (int cycle = 0; cycle < 4; ++cycle) {
    sim.setInputUint("en", 1);
    sim.evalCombinational();
    vcd.sample();
    sim.clockEdge();
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 4"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#1000"), std::string::npos);  // cycle 1
  // The 4-bit counter emits a change per cycle: b0000, b0001, b0010, ...
  EXPECT_NE(text.find("b0000 "), std::string::npos);
  EXPECT_NE(text.find("b0001 "), std::string::npos);
  EXPECT_NE(text.find("b0010 "), std::string::npos);
}

TEST(Vcd, UnchangedValuesNotRepeated) {
  rtl::Module m = makeToggler();
  rtl::Simulator sim(m);
  std::ostringstream out;
  rtl::VcdWriter vcd(sim, out);
  vcd.addNet(m.findInput("en"));
  for (int cycle = 0; cycle < 5; ++cycle) {
    sim.setInputUint("en", 0);  // never changes
    sim.evalCombinational();
    vcd.sample();
    sim.clockEdge();
  }
  const std::string text = out.str();
  // Exactly one value line for en (the initial dump), no further changes.
  std::size_t count = 0;
  for (std::size_t pos = text.find("\n0!"); pos != std::string::npos;
       pos = text.find("\n0!", pos + 1))
    ++count;
  EXPECT_EQ(count, 1u);
}

TEST(Verilog, EmitsStructurallyCompleteModule) {
  const std::string v = rtl::emitVerilog(designs::makeFirRtl(false));
  EXPECT_NE(v.find("module fir ("), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire rst"), std::string::npos);
  EXPECT_NE(v.find("input wire [7:0] in_data"), std::string::npos);
  EXPECT_NE(v.find("output wire [17:0] out_data_o"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  // Signed arithmetic present (sext of samples).
  EXPECT_NE(v.find("{{"), std::string::npos);
  // Every assign is terminated and no unnamed nets leak.
  EXPECT_EQ(v.find("$$"), std::string::npos);
}

TEST(Verilog, MemoriesAndFsm) {
  const std::string v = rtl::emitVerilog(designs::makeCacheRtl());
  EXPECT_NE(v.find("reg [7:0] mem_0 [0:255];"), std::string::npos);
  EXPECT_NE(v.find("mem_0["), std::string::npos);
  EXPECT_NE(v.find("module cache ("), std::string::npos);
}

TEST(Verilog, GcdUsesModulo) {
  const std::string v = rtl::emitVerilog(designs::makeGcdRtl());
  EXPECT_NE(v.find(" % "), std::string::npos);
}

TEST(Verilog, NameSanitization) {
  rtl::Module m("names");
  rtl::NetId a = m.addInput("weird name!", 4);
  rtl::NetId b = m.addInput("output", 4);  // keyword
  m.addOutput("sum", m.opAdd(a, b));
  const std::string v = rtl::emitVerilog(m);
  EXPECT_NE(v.find("weird_name_"), std::string::npos);
  EXPECT_NE(v.find("output_"), std::string::npos);
  EXPECT_EQ(v.find("weird name!"), std::string::npos);
}

TEST(SlmcPrint, GcdRendersAsReadableSource) {
  const std::string src = slmc::printFunction(designs::makeGcdConditioned());
  EXPECT_NE(src.find("uint8 gcd(uint8 a, uint8 b)"), std::string::npos);
  EXPECT_NE(src.find("for (uint32 i = 0; i < 14; ++i)"), std::string::npos);
  EXPECT_NE(src.find("(x % y)"), std::string::npos);
  EXPECT_NE(src.find("return x;"), std::string::npos);
}

TEST(SlmcPrint, ViolationsAreAnnotated) {
  const std::string src =
      slmc::printFunction(designs::makeGcdUnconditioned());
  EXPECT_NE(src.find("DYNAMIC SIZE"), std::string::npos);
  EXPECT_NE(src.find("DATA-DEPENDENT BOUND"), std::string::npos);
}

TEST(CoreReport, JsonShape) {
  core::ResilientRunner plan("p", {.maxAttempts = 1});
  plan.addSecBlock("blk\"quoted", 1, {}, [](const sec::SecOptions&) {
    sec::SecResult r;
    r.verdict = sec::Verdict::kProvenEquivalent;
    return r;
  });
  auto report = plan.runAll();
  const std::string json = report.json(plan.name());
  EXPECT_NE(json.find("\"plan\":\"p\""), std::string::npos);
  EXPECT_NE(json.find("\"all_passed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"blk\\\"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"pass\""), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"sec\""), std::string::npos);
}

}  // namespace
}  // namespace dfv
