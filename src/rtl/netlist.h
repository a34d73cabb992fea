// Structural RTL netlists.
//
// This is the RTL substrate of the reproduction: a synchronous,
// single-clock-domain netlist of word-level combinational cells, D
// flip-flops, and synchronous-read memories, with module hierarchy.  It plays
// the role Verilog RTL plays in the paper: designs are built through the
// builder API (the "RTL designer" view), simulated cycle-accurately
// (src/rtl/sim.h), and lowered to an ir::TransitionSystem for sequential
// equivalence checking (src/rtl/lower.h).
//
// Cells reuse ir::Op for their operation kinds; only the scalar operation
// subset is legal in a cell (leaves, arrays, and mux/concat/extract/... are
// all expressed structurally).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/check.h"
#include "ir/expr.h"

namespace dfv::rtl {

/// Handle to a net within one Module.  Not valid across modules.
using NetId = std::uint32_t;
inline constexpr NetId kNoNet = ~NetId{0};

/// A combinational cell: output = op(inputs).
struct Cell {
  ir::Op op = ir::Op::kAdd;
  std::vector<NetId> inputs;
  NetId output = kNoNet;
  unsigned attr0 = 0, attr1 = 0;  ///< extract hi/lo; zext/sext target width
  bv::BitVector constVal;         ///< kConst only
};

/// A D flip-flop with optional clock-enable and synchronous reset.
struct Dff {
  std::string name;
  NetId d = kNoNet;
  NetId q = kNoNet;
  NetId enable = kNoNet;     ///< kNoNet = always enabled
  NetId syncReset = kNoNet;  ///< kNoNet = no sync reset
  bv::BitVector resetValue;  ///< power-on AND sync-reset value
};

/// A synchronous-read, synchronous-write memory.  Reads have one cycle of
/// latency (the read address is registered), the paper's §3.2 example of a
/// micro-architectural detail SLMs typically abstract away.
struct Memory {
  struct ReadPort {
    NetId addr = kNoNet;
    NetId data = kNoNet;  ///< registered read data (valid next cycle)
  };
  struct WritePort {
    NetId enable = kNoNet;
    NetId addr = kNoNet;
    NetId data = kNoNet;
  };
  std::string name;
  unsigned width = 0;
  unsigned depth = 0;
  std::vector<ReadPort> readPorts;
  std::vector<WritePort> writePorts;
  std::vector<bv::BitVector> init;  ///< empty = all zero

  unsigned addrWidth() const { return ir::Type{width, depth}.indexWidth(); }
};

class Module;

/// A submodule instantiation with a by-name port binding.
struct Instance {
  std::string name;
  const Module* module = nullptr;
  std::map<std::string, NetId> portMap;  ///< formal port name -> actual net
};

/// A synthesizable module: ports, nets, cells, registers, memories,
/// instances.  Build with the fluent helpers; structural invariants (single
/// driver, width agreement) are enforced at construction.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ----- nets & ports ----------------------------------------------------
  NetId addNet(unsigned width, std::string name = "");
  unsigned netWidth(NetId n) const {
    DFV_CHECK(n < netWidths_.size());
    return netWidths_[n];
  }
  const std::string& netName(NetId n) const {
    DFV_CHECK(n < netNames_.size());
    return netNames_[n];
  }
  std::size_t netCount() const { return netWidths_.size(); }

  NetId addInput(const std::string& name, unsigned width);
  void addOutput(const std::string& name, NetId net);

  struct PortRef {
    std::string name;
    NetId net;
  };
  const std::vector<PortRef>& inputs() const { return inputs_; }
  const std::vector<PortRef>& outputs() const { return outputs_; }
  NetId findInput(const std::string& name) const;
  NetId findOutput(const std::string& name) const;

  // ----- combinational builder helpers ------------------------------------
  NetId constant(const bv::BitVector& v);
  NetId constantUint(unsigned width, std::uint64_t v) {
    return constant(bv::BitVector::fromUint(width, v));
  }
  NetId opAdd(NetId a, NetId b) { return binary(ir::Op::kAdd, a, b); }
  NetId opSub(NetId a, NetId b) { return binary(ir::Op::kSub, a, b); }
  NetId opMul(NetId a, NetId b) { return binary(ir::Op::kMul, a, b); }
  NetId opUDiv(NetId a, NetId b) { return binary(ir::Op::kUDiv, a, b); }
  NetId opURem(NetId a, NetId b) { return binary(ir::Op::kURem, a, b); }
  NetId opSDiv(NetId a, NetId b) { return binary(ir::Op::kSDiv, a, b); }
  NetId opSRem(NetId a, NetId b) { return binary(ir::Op::kSRem, a, b); }
  NetId opAnd(NetId a, NetId b) { return binary(ir::Op::kAnd, a, b); }
  NetId opOr(NetId a, NetId b) { return binary(ir::Op::kOr, a, b); }
  NetId opXor(NetId a, NetId b) { return binary(ir::Op::kXor, a, b); }
  NetId opNot(NetId a) { return unary(ir::Op::kNot, a); }
  NetId opNeg(NetId a) { return unary(ir::Op::kNeg, a); }
  NetId opShl(NetId a, NetId amt) { return shiftOp(ir::Op::kShl, a, amt); }
  NetId opLShr(NetId a, NetId amt) { return shiftOp(ir::Op::kLShr, a, amt); }
  NetId opAShr(NetId a, NetId amt) { return shiftOp(ir::Op::kAShr, a, amt); }
  NetId opEq(NetId a, NetId b) { return compareOp(ir::Op::kEq, a, b); }
  NetId opNe(NetId a, NetId b) { return compareOp(ir::Op::kNe, a, b); }
  NetId opULt(NetId a, NetId b) { return compareOp(ir::Op::kULt, a, b); }
  NetId opULe(NetId a, NetId b) { return compareOp(ir::Op::kULe, a, b); }
  NetId opSLt(NetId a, NetId b) { return compareOp(ir::Op::kSLt, a, b); }
  NetId opSLe(NetId a, NetId b) { return compareOp(ir::Op::kSLe, a, b); }
  NetId opMux(NetId sel, NetId thenN, NetId elseN);
  NetId opConcat(NetId hi, NetId lo);
  NetId opExtract(NetId a, unsigned hi, unsigned lo);
  NetId opZExt(NetId a, unsigned newWidth);
  NetId opSExt(NetId a, unsigned newWidth);
  NetId opRedAnd(NetId a) { return reduceOp(ir::Op::kRedAnd, a); }
  NetId opRedOr(NetId a) { return reduceOp(ir::Op::kRedOr, a); }
  NetId opRedXor(NetId a) { return reduceOp(ir::Op::kRedXor, a); }
  /// Identity buffer (used when a port must alias an existing net).
  NetId opBuf(NetId a) { return unary(ir::Op::kZExt, a); }

  // ----- sequential builder helpers ---------------------------------------
  /// Creates a register; returns its q net.  d may be wired later via
  /// connectDff (registers often feed logic that feeds them back).
  NetId addDff(const std::string& name, unsigned width,
               const bv::BitVector& resetValue, NetId d = kNoNet,
               NetId enable = kNoNet, NetId syncReset = kNoNet);
  NetId addDff(const std::string& name, unsigned width, std::uint64_t reset,
               NetId d = kNoNet, NetId enable = kNoNet,
               NetId syncReset = kNoNet) {
    return addDff(name, width, bv::BitVector::fromUint(width, reset), d,
                  enable, syncReset);
  }
  /// Sets the d (and optionally enable/syncReset) of a register by q net.
  void connectDff(NetId q, NetId d, NetId enable = kNoNet,
                  NetId syncReset = kNoNet);

  /// Creates a memory; read/write ports are added on the returned handle via
  /// the mem* helpers below.
  std::size_t addMemory(const std::string& name, unsigned width,
                        unsigned depth, std::vector<bv::BitVector> init = {});
  /// Adds a synchronous read port; returns the registered read-data net.
  NetId memReadPort(std::size_t memIdx, NetId addr);
  void memWritePort(std::size_t memIdx, NetId enable, NetId addr, NetId data);

  // ----- hierarchy ---------------------------------------------------------
  /// Instantiates `sub` with a by-name binding of every port to a net of
  /// this module.  All ports must be bound.
  void addInstance(const std::string& name, const Module& sub,
                   std::map<std::string, NetId> portMap);

  const std::vector<Cell>& cells() const { return cells_; }
  /// Replaces cell `idx` (used by the mutation tooling, rtl/mutate.h).
  /// The replacement must drive the same output net at the same width.
  void replaceCell(std::size_t idx, Cell replacement);
  const std::vector<Dff>& dffs() const { return dffs_; }
  const std::vector<Memory>& memories() const { return memories_; }
  const std::vector<Instance>& instances() const { return instances_; }

  /// True when the module has no submodule instances.
  bool isFlat() const { return instances_.empty(); }

  /// Returns a flattened copy: every instance recursively inlined, child net
  /// names prefixed "instname.".
  Module flatten() const;

  /// Structural sanity: every net single-driven, dffs fully connected,
  /// no undriven non-input nets feeding logic.
  void validate() const;

  /// Total cell+dff count after flattening (a crude size metric).
  std::size_t flatSizeEstimate() const;

 private:
  NetId unary(ir::Op op, NetId a);
  NetId binary(ir::Op op, NetId a, NetId b);
  NetId compareOp(ir::Op op, NetId a, NetId b);
  NetId shiftOp(ir::Op op, NetId a, NetId amt);
  NetId reduceOp(ir::Op op, NetId a);
  void checkNet(NetId n) const {
    DFV_CHECK_MSG(n < netWidths_.size(), "invalid net id " << n);
  }
  NetId emitCell(Cell c);
  void flattenInto(Module& flat, const std::string& prefix,
                   const std::map<std::string, NetId>& portMap) const;

  std::string name_;
  std::vector<unsigned> netWidths_;
  std::vector<std::string> netNames_;
  std::vector<PortRef> inputs_;
  std::vector<PortRef> outputs_;
  std::vector<Cell> cells_;
  std::vector<Dff> dffs_;
  std::vector<Memory> memories_;
  std::vector<Instance> instances_;
};

/// A combinational cycle through a module's cells: `cells` holds the cell
/// indices on the loop in feed order (each cell's output net is an input of
/// the next; the last feeds the first).  Produced by findCombinationalCycle
/// so levelization failures and the DRC can report the complete path rather
/// than a single net name.
struct CombCycle {
  std::vector<std::size_t> cells;

  /// "net 'a' (add) -> net 'b' (mux) -> net 'a'" — the full loop.
  std::string describe(const Module& m) const;
};

/// `m`'s cells in levelized (topological) order: every cell after the cells
/// driving its inputs.  Cells on or behind a combinational cycle are left
/// out, so the order is complete iff the module is simulable.
std::vector<std::size_t> levelize(const Module& m);

/// Finds one combinational cycle among `m`'s cells (the module is analyzed
/// as-is; flatten first for hierarchical designs).  Returns nullopt when the
/// cells levelize, i.e. the module is simulable.
std::optional<CombCycle> findCombinationalCycle(const Module& m);

}  // namespace dfv::rtl
