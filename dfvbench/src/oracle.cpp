#include "oracle.h"

#include <array>
#include <sstream>
#include <vector>

#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/truncsum.h"
#include "fp/softfloat.h"
#include "rtl/sim.h"
#include "workload/workload.h"

namespace dfvbench::oracle {

using namespace dfv;

namespace {

std::uint64_t txnValue(const sec::Counterexample& cex, unsigned txn,
                       std::size_t var) {
  return cex.txnVarValues.at(txn).at(var).toUint64();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

std::uint64_t firGolden(const sec::Counterexample& cex,
                        const sec::OutputCheck& check) {
  const unsigned failing = cex.failingTransaction;
  if (check.slmOutput == "valid") return failing + 1 >= designs::kFirTaps;
  // The verification SLM starts from an all-zero delay line, so its output
  // before the window fills is the filter over zero-padded history.
  designs::FirKernel kernel;
  for (unsigned i = 0; i + 1 < designs::kFirTaps; ++i) (void)kernel.push(0);
  std::uint64_t out = 0;
  for (unsigned t = 0; t <= failing; ++t) {
    const auto y = kernel.push(
        static_cast<std::int8_t>(cex.txnVarValues.at(t).at(0).toInt64()));
    DFV_CHECK(y.has_value());
    out = y->toBitVector().toUint64();
  }
  return out;
}

std::uint64_t convWindowGolden(const sec::Counterexample& cex,
                               const sec::OutputCheck&) {
  std::array<std::uint8_t, 9> window{};
  for (std::size_t i = 0; i < window.size(); ++i)
    window[i] = static_cast<std::uint8_t>(
        txnValue(cex, cex.failingTransaction, i));
  return designs::convWindow(window, designs::ConvKernel::sharpen());
}

std::uint64_t truncsumGolden(const sec::Counterexample& cex,
                             const sec::OutputCheck&) {
  std::uint64_t acc = 0;
  for (unsigned i = 0; i < designs::kTruncsumSamples; ++i) {
    const std::uint64_t s = txnValue(cex, cex.failingTransaction, i);
    acc = i == 0 ? s : std::min<std::uint64_t>(acc + s, designs::kTruncsumCap);
  }
  return acc;
}

std::string replayOnSimulator(const rtl::Module& rtl,
                              const sec::SecProblem& problem,
                              const sec::Counterexample& cex,
                              const SlmGolden& golden) {
  const ir::TransitionSystem& ts = problem.side(sec::Side::kRtl);
  const unsigned cycles = problem.cycles(sec::Side::kRtl);
  // Lowered RTL inputs are the module's ports under the "r." prefix.
  std::vector<std::string> ports;
  for (ir::NodeRef in : ts.inputs()) {
    const std::string& name = in->name();
    if (name.rfind("r.", 0) != 0) return "unexpected RTL input " + name;
    ports.push_back(name.substr(2));
  }
  rtl::Simulator sim(rtl);
  sim.reset();
  std::uint64_t observed = 0;
  for (unsigned t = 0; t <= cex.failingTransaction; ++t) {
    for (unsigned c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < ports.size(); ++i)
        sim.setInput(ports[i], cex.rtlInputs.at(t).at(c).at(i).scalar);
      sim.evalCombinational();
      if (t == cex.failingTransaction && c == cex.check.rtlCycle)
        observed = sim.outputValue(cex.check.rtlOutput).toUint64();
      sim.clockEdge();
    }
  }
  const std::uint64_t expected = golden(cex, cex.check);
  if (observed == expected)
    return "simulator replay of the counterexample matches the golden (" +
           hex(expected) + ")";
  if (observed != cex.rtlValue.toUint64())
    return "simulator gives " + hex(observed) + ", engine reported " +
           hex(cex.rtlValue.toUint64());
  if (expected != cex.slmValue.toUint64())
    return "golden gives " + hex(expected) + ", engine reported " +
           hex(cex.slmValue.toUint64());
  return "";
}

std::string fpaddCounterexample(const sec::Counterexample& cex) {
  const fp::Format fmt = fp::Format::minifloat();
  const std::uint64_t a = txnValue(cex, cex.failingTransaction, 0);
  const std::uint64_t b = txnValue(cex, cex.failingTransaction, 1);
  const std::uint64_t ieee =
      (fp::SoftFloat(fmt, a) + fp::SoftFloat(fmt, b)).bits();
  const std::uint64_t hw = fp::hwAdd(fmt, a, b);
  if (ieee == hw)
    return "IEEE and hardware sums agree on " + hex(a) + "+" + hex(b);
  if (ieee != cex.slmValue.toUint64() || hw != cex.rtlValue.toUint64())
    return "engine values differ from SoftFloat/hwAdd on " + hex(a) + "+" +
           hex(b);
  return "";
}

std::string firRandomCosim(const rtl::Module& rtl, std::uint64_t seed,
                           std::size_t samples) {
  const auto stream = workload::makeSampleStream(samples, seed);
  std::vector<std::int8_t> x;
  x.reserve(stream.size());
  for (const auto& s : stream)
    x.push_back(static_cast<std::int8_t>(s.toInt64()));
  const auto golden = designs::firGoldenBitAccurate(x);
  cosim::WrappedRtl dut(rtl, cosim::StreamPorts{});
  const auto outs = dut.run(stream);
  if (outs.size() != golden.size())
    return "random cosim: " + std::to_string(outs.size()) +
           " outputs, golden " + std::to_string(golden.size());
  for (std::size_t k = 0; k < outs.size(); ++k)
    if (outs[k].value.toUint64() != golden[k].toBitVector().toUint64())
      return "random cosim mismatch at output " + std::to_string(k);
  return "";
}

std::string convWindowRandomCosim(const rtl::Module& rtl, std::uint64_t seed,
                                  std::size_t windows) {
  const auto kernel = designs::ConvKernel::sharpen();
  workload::Rng rng(seed);
  rtl::Simulator sim(rtl);
  sim.reset();
  for (std::size_t n = 0; n < windows; ++n) {
    std::array<std::uint8_t, 9> window{};
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<std::uint8_t>(rng.below(256));
      std::string port = "p";
      port += std::to_string(i);
      sim.setInputUint(port, window[i]);
    }
    sim.evalCombinational();
    if (sim.outputValue("pix").toUint64() !=
        designs::convWindow(window, kernel))
      return "random cosim mismatch on window " + std::to_string(n);
    sim.clockEdge();
  }
  return "";
}

}  // namespace dfvbench::oracle
