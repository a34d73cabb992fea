// Block substitution: an RTL block plugged into a running SLM system.
//
// §2(b): "Replace a block of the SLM with a wrapped-RTL corresponding to
// that SLM block and co-simulate the wrapped-RTL and the remaining SLM
// blocks."  RtlBlockInSlm is that plug: it owns an rtl::Simulator, advances
// it one cycle per SLM clock edge, pulls its input stream from a FIFO
// (where an upstream SLM block produces) and pushes valid outputs into a
// FIFO (where a downstream SLM block consumes).  Clean FIFO boundaries on
// both models are what §4.2's consistent-partitioning recommendation buys.
#pragma once

#include "bitvec/bitvector.h"
#include "cosim/wrapped_rtl.h"
#include "rtl/sim.h"
#include "slm/channels.h"
#include "slm/kernel.h"

namespace dfv::cosim {

/// An SLM module whose behaviour is an embedded cycle-stepped RTL block.
class RtlBlockInSlm : public slm::Module {
 public:
  RtlBlockInSlm(slm::Kernel& kernel, std::string name,
                const rtl::Module& rtlModule, StreamPorts ports,
                slm::Clock& clock, slm::Fifo<bv::BitVector>& input,
                slm::Fifo<bv::BitVector>& output)
      : slm::Module(kernel, std::move(name)),
        sim_(rtlModule),
        inData_(sim_.inputPort(ports.inData)),
        inValid_(sim_.inputPort(ports.inValid)),
        outData_(sim_.outputPort(ports.outData)),
        outValid_(sim_.outputPort(ports.outValid)),
        clock_(clock),
        input_(input),
        output_(output),
        dataWidth_(sim_.module().netWidth(inData_)) {
    if (!ports.stall.empty()) stall_ = sim_.inputPort(ports.stall);
    kernel.spawn(cycleLoop(), this->name() + ".cycle");
  }

  std::uint64_t cyclesRun() const { return cycles_; }

 private:
  slm::Process cycleLoop() {
    for (;;) {
      co_await clock_.rising();
      auto item = input_.tryGet();
      if (item.has_value()) {
        DFV_CHECK_MSG(item->width() == dataWidth_, "stream width mismatch");
        sim_.setInput(inData_, *item);
        sim_.setInputUint(inValid_, 1);
      } else {
        sim_.setInputUint(inData_, 0);
        sim_.setInputUint(inValid_, 0);
      }
      if (stall_ != rtl::kNoNet) sim_.setInputUint(stall_, 0);
      sim_.evalCombinational();
      if (!sim_.netValue(outValid_).isZero()) {
        const bool pushed = output_.tryPut(sim_.netValue(outData_));
        DFV_CHECK_MSG(pushed, "output fifo overflow in '" << name()
                                                          << "' (size the "
                                                             "fifo for the "
                                                             "RTL burst)");
      }
      sim_.clockEdge();
      ++cycles_;
    }
  }

  rtl::Simulator sim_;
  rtl::NetId inData_, inValid_, outData_, outValid_;
  rtl::NetId stall_ = rtl::kNoNet;
  slm::Clock& clock_;
  slm::Fifo<bv::BitVector>& input_;
  slm::Fifo<bv::BitVector>& output_;
  unsigned dataWidth_;
  std::uint64_t cycles_ = 0;
};

}  // namespace dfv::cosim
