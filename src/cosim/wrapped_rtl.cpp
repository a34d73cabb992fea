#include "cosim/wrapped_rtl.h"

namespace dfv::cosim {

StallPolicy randomStalls(std::uint32_t numerator, std::uint32_t denominator,
                         std::uint64_t seed) {
  DFV_CHECK_MSG(denominator > 0 && numerator <= denominator,
                "stall probability must be in [0, 1]");
  // Stateless per-cycle hash (splitmix64) so the policy is a pure function
  // of (seed, cycle) — replayable regardless of call order.
  return [=](std::uint64_t cycle) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (cycle + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return (z % denominator) < numerator;
  };
}

WrappedRtl::WrappedRtl(const rtl::Module& module, StreamPorts ports)
    : sim_(module),
      inData_(sim_.inputPort(ports.inData)),
      inValid_(sim_.inputPort(ports.inValid)),
      outData_(sim_.outputPort(ports.outData)),
      outValid_(sim_.outputPort(ports.outValid)),
      dataWidth_(sim_.module().netWidth(inData_)) {
  if (!ports.stall.empty()) stall_ = sim_.inputPort(ports.stall);
}

std::vector<StreamItem> WrappedRtl::run(
    const std::vector<bv::BitVector>& stimulus, std::uint64_t drainCycles,
    const StallPolicy& stall) {
  sim_.reset();
  std::vector<StreamItem> outputs;
  std::size_t next = 0;
  std::uint64_t idleBudget = drainCycles;
  std::uint64_t cycle = 0;
  while (next < stimulus.size() || idleBudget > 0) {
    const bool stalled = stall(cycle);
    const bool feeding = !stalled && next < stimulus.size();
    if (feeding) {
      DFV_CHECK_MSG(stimulus[next].width() == dataWidth_,
                    "stimulus width mismatch at item " << next);
      sim_.setInput(inData_, stimulus[next]);
      sim_.setInputUint(inValid_, 1);
      ++next;
    } else {
      sim_.setInputUint(inData_, 0);
      sim_.setInputUint(inValid_, 0);
    }
    if (stall_ != rtl::kNoNet) sim_.setInputUint(stall_, stalled ? 1 : 0);
    sim_.evalCombinational();
    // A stalled cycle freezes the whole interface: the DUT holds its
    // pipeline and the downstream side does not sample (otherwise a held
    // out_valid would be observed repeatedly).
    if (!stalled && !sim_.netValue(outValid_).isZero())
      outputs.push_back(StreamItem{cycle, sim_.netValue(outData_)});
    sim_.clockEdge();
    if (next >= stimulus.size()) --idleBudget;
    ++cycle;
  }
  cyclesRun_ = cycle;
  return outputs;
}

}  // namespace dfv::cosim
