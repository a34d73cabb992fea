// Cycle-accurate RTL simulation.
//
// Two-phase semantics per cycle, the standard synchronous-logic contract:
//   1. evalCombinational(): with the current inputs and register/memory
//      outputs, every combinational cell is evaluated once in levelized
//      (topological) order;
//   2. clockEdge(): every DFF captures its d, every memory write commits and
//      every memory read port registers the addressed element.
// Memory ports are read-before-write: a read of an address written in the
// same cycle returns the old contents.
//
// Construction compiles both phases into one ir::Tape over a per-net slot
// arena: the levelized cells, then the clock edge — register commits,
// memory reads and in-place memory writes — ordered so every edge action
// reads pre-edge values (a register feeding another commits after it; only
// a cyclic dependency, such as two registers swapping, is staged through a
// scratch slot).  A cycle then allocates nothing for values <= 64 bits.
//
// Combinational cycles are rejected at construction.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "bitvec/bitvector.h"
#include "ir/eval.h"
#include "rtl/netlist.h"

namespace dfv::rtl {

/// Levelized, cycle-accurate simulator for a (flattened) Module.
class Simulator {
 public:
  /// Flattens `m` if it has instances.  Throws on combinational loops or
  /// structural problems.
  explicit Simulator(const Module& m);

  const Module& module() const { return flat_; }

  /// Registers to reset values, memories to init contents.
  void reset();

  /// The net of input (output) port `name`; throws if there is none.  A
  /// per-cycle driver resolves its ports once and then uses the NetId
  /// overloads, which skip the by-name lookup.
  NetId inputPort(const std::string& name) const;
  NetId outputPort(const std::string& name) const;

  /// Drives an input port for the current cycle.
  void setInput(const std::string& name, const bv::BitVector& v) {
    setInput(inputPort(name), v);
  }
  void setInputUint(const std::string& name, std::uint64_t v) {
    setInputUint(inputPort(name), v);
  }
  void setInput(NetId input, const bv::BitVector& v);
  void setInputUint(NetId input, std::uint64_t v);

  /// Evaluates all combinational logic with the current inputs and state.
  void evalCombinational();

  /// Commits registers and memories (call after evalCombinational).
  void clockEdge();

  /// setInputs + evalCombinational + read outputs + clockEdge, in one call.
  std::unordered_map<std::string, bv::BitVector> step(
      const std::unordered_map<std::string, bv::BitVector>& inputs);

  /// Value of any net (valid after evalCombinational in this cycle).
  const bv::BitVector& netValue(NetId n) const {
    DFV_CHECK(n < netSlot_.size());
    return tape_.slot(netSlot_[n]).scalar;
  }
  const bv::BitVector& outputValue(const std::string& name) const {
    return netValue(outputPort(name));
  }

  /// Records the value of `net` after every evalCombinational call.
  void watch(NetId net) { watched_.push_back(net); }
  const std::vector<std::vector<bv::BitVector>>& watchHistory() const {
    return watchHistory_;
  }

 private:
  using Slot = ir::Tape::Slot;

  void compileEdge();

  Module flat_;
  ir::Tape tape_;
  std::vector<Slot> netSlot_;  // per net
  std::vector<Slot> memSlot_;  // per memory
  std::size_t combEnd_ = 0;    // tape [0, combEnd_) is the combinational phase
  bool combEvaluated_ = false;
  std::vector<NetId> watched_;
  std::vector<std::vector<bv::BitVector>> watchHistory_;
};

}  // namespace dfv::rtl
