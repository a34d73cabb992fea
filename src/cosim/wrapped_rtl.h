// Wrapped-RTL: transactors around an RTL simulator.
//
// §2: "the actual RTL can be instantiated in another top-level hierarchy
// that places transactors at the RTL inputs and outputs so that the SLM
// input stimulus can be used for RTL simulation. The RTL with transactors is
// called the wrapped-RTL."
//
// The wrapper implements the paper's canonical interface split (§3.2): the
// SLM side presents *parallel* data (whole arrays of samples/pixels) while
// the RTL side consumes a *serial* valid-qualified stream — the transactor
// is the array-to-stream / stream-to-array adapter, including stall
// injection to exercise variable-latency behaviour.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rtl/sim.h"

namespace dfv::cosim {

/// Port-name convention binding a streaming RTL block.
struct StreamPorts {
  std::string inData = "in_data";
  std::string inValid = "in_valid";
  std::string outData = "out_data";
  std::string outValid = "out_valid";
  /// Optional stall input ("" = none): when driven high the wrapper asserts
  /// it and the DUT is expected to hold its pipeline.
  std::string stall;
};

/// A timestamped output item collected by the wrapper.
struct StreamItem {
  std::uint64_t cycle;
  bv::BitVector value;
};

/// Policy deciding, per cycle, whether to assert the stall input (and to
/// withhold input data).  Deterministic policies keep runs reproducible.
using StallPolicy = std::function<bool(std::uint64_t cycle)>;

inline StallPolicy noStalls() {
  return [](std::uint64_t) { return false; };
}
/// Pseudo-random stalls with probability numerator/denominator (LCG-based,
/// deterministic in `seed`).
StallPolicy randomStalls(std::uint32_t numerator, std::uint32_t denominator,
                         std::uint64_t seed);

/// Ready/valid streaming wrapper: feeds a parallel buffer of input words
/// into the RTL one per (un-stalled) cycle and collects valid outputs.
class WrappedRtl {
 public:
  WrappedRtl(const rtl::Module& module, StreamPorts ports);

  /// Resets the DUT, streams `stimulus` (one item per un-stalled cycle),
  /// then drains for up to `drainCycles` extra cycles.  Returns all outputs
  /// seen with their cycle stamps.
  std::vector<StreamItem> run(const std::vector<bv::BitVector>& stimulus,
                              std::uint64_t drainCycles = 64,
                              const StallPolicy& stall = noStalls());

  rtl::Simulator& simulator() { return sim_; }
  std::uint64_t cyclesRun() const { return cyclesRun_; }

 private:
  rtl::Simulator sim_;
  rtl::NetId inData_, inValid_, outData_, outValid_;
  rtl::NetId stall_ = rtl::kNoNet;  ///< kNoNet when the DUT has no stall input
  unsigned dataWidth_;
  std::uint64_t cyclesRun_ = 0;
};

}  // namespace dfv::cosim
