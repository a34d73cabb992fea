// Robustness and error-path coverage: API misuse must fail loudly and
// serialization must round-trip.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/resilient.h"
#include "cosim/wrapped_rtl.h"
#include "rtl/mutate.h"
#include "rtl/vcd.h"
#include "slm/kernel.h"

namespace dfv {
namespace {

using bv::BitVector;

TEST(Robustness, BitVectorStringRoundTrip) {
  std::mt19937_64 rng(0x5712);
  for (unsigned width : {1u, 4u, 7u, 8u, 16u, 33u, 64u, 100u}) {
    for (int iter = 0; iter < 50; ++iter) {
      BitVector v(width);
      for (unsigned i = 0; i < width; ++i)
        if (rng() & 1) v.setBit(i, true);
      EXPECT_EQ(BitVector::fromString(v.toString(16)), v) << v.toString(16);
      EXPECT_EQ(BitVector::fromString(v.toString(2)), v) << v.toString(2);
      if (width >= 4) {
        EXPECT_EQ(BitVector::fromString(v.toString(10)), v) << v.toString(10);
      }
    }
  }
}

TEST(Robustness, SpawnOfMovedFromProcessThrows) {
  slm::Kernel k;
  auto proc = [&]() -> slm::Process { co_return; };
  slm::Process p = proc();
  slm::Process q = std::move(p);
  k.spawn(std::move(q), "ok");
  EXPECT_THROW(k.spawn(std::move(p), "moved-from"), CheckError);
  k.run();
}

TEST(Robustness, JsonReportForFailures) {
  core::ResilientRunner plan("p", {.maxAttempts = 1});
  plan.addSecBlock("bad", 1, {}, [](const sec::SecOptions&) {
    sec::SecResult r;
    r.verdict = sec::Verdict::kNotEquivalent;
    return r;
  });
  const std::string json = plan.runAll().json(plan.name());
  EXPECT_NE(json.find("\"status\":\"fail\""), std::string::npos);
  EXPECT_NE(json.find("\"all_passed\":false"), std::string::npos);
  // Incremental skip shows as "skipped" only after a clean run; a failed
  // block reruns.
  const std::string json2 = plan.runIncremental().json(plan.name());
  EXPECT_EQ(json2.find("\"status\":\"skipped\""), std::string::npos);
}

TEST(Robustness, VcdMisuseRejected) {
  rtl::Module m("t");
  rtl::NetId a = m.addInput("a", 4);
  m.addOutput("y", m.opNot(a));
  rtl::Simulator sim(m);
  std::ostringstream out;
  rtl::VcdWriter vcd(sim, out);
  EXPECT_THROW(vcd.writeHeader(), CheckError);  // no nets selected
  vcd.addNet(a);
  sim.setInputUint("a", 3);
  sim.evalCombinational();
  vcd.sample();
  EXPECT_THROW(vcd.addNet(m.findOutput("y")), CheckError);  // after header
  EXPECT_THROW(rtl::VcdWriter(sim, out, 0), CheckError);    // zero timescale
}

TEST(Robustness, WrappedRtlPortValidation) {
  rtl::Module m("noports");
  rtl::NetId a = m.addInput("a", 8);
  m.addOutput("y", a);
  EXPECT_THROW(cosim::WrappedRtl(m, cosim::StreamPorts{}), CheckError);
}

TEST(Robustness, WrappedRtlStimulusWidthChecked) {
  rtl::Module m("s");
  rtl::NetId d = m.addInput("in_data", 8);
  rtl::NetId v = m.addInput("in_valid", 1);
  m.addOutput("out_data", d);
  m.addOutput("out_valid", v);
  cosim::WrappedRtl dut(m, cosim::StreamPorts{});
  EXPECT_THROW(dut.run({BitVector::fromUint(16, 1)}), CheckError);
}

TEST(Robustness, MutationIndexOutOfRange) {
  rtl::Module m("tiny");
  rtl::NetId a = m.addInput("a", 4);
  m.addOutput("y", m.opAdd(a, a));  // one swappable site
  EXPECT_EQ(rtl::countMutationSites(m), 1u);
  EXPECT_TRUE(rtl::mutate(m, 0).has_value());
  EXPECT_FALSE(rtl::mutate(m, 1).has_value());
  // The mutant simulates (structurally legal).
  rtl::Simulator sim(rtl::mutate(m, 0)->module);
  auto out = sim.step({{"a", BitVector::fromUint(4, 5)}});
  EXPECT_EQ(out.at("y").toUint64(), 0u);  // a - a
}

TEST(Robustness, ReplaceCellGuards) {
  rtl::Module m("g");
  rtl::NetId a = m.addInput("a", 4);
  rtl::NetId y = m.opAdd(a, a);
  m.addOutput("y", y);
  rtl::Cell c = m.cells()[0];
  c.output = a;  // must not retarget the cell
  EXPECT_THROW(m.replaceCell(0, c), CheckError);
  EXPECT_THROW(m.replaceCell(5, m.cells()[0]), CheckError);
}

}  // namespace
}  // namespace dfv
