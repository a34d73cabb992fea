#include "drc/rtl_rules.h"

#include <optional>
#include <vector>

#include "ir/eval.h"

namespace dfv::drc {

namespace {

using rtl::Cell;
using rtl::Module;
using rtl::NetId;
using rtl::kNoNet;

class NetlistChecker {
 public:
  NetlistChecker(const Module& m, const std::string& where, DrcReport& out)
      : m_(m), where_(where), out_(out) {}

  void run() {
    if (!collectStructure()) return;  // malformed ids: stop before indexing
    checkDrivers();
    checkPorts();
    checkWidths();
    checkRegisters();
    checkDeadCells();
    const bool cyclic = checkCombCycle();
    if (!cyclic) constantPropagate();
    for (const auto& inst : m_.instances())
      NetlistChecker(*inst.module, where_ + "/" + inst.name, out_).run();
  }

 private:
  void add(Rule r, Severity s, std::string loc, std::string msg) {
    out_.add(r, s, Layer::kRtl, where_ + "/" + std::move(loc),
             std::move(msg));
  }

  std::string netRef(NetId n) const {
    return "net '" + m_.netName(n) + "'";
  }

  /// Validates every referenced net id and builds driver/use tables.
  /// Returns false when an id is out of range (all later passes index by
  /// net id and would be unsafe).
  bool collectStructure() {
    const std::size_t nets = m_.netCount();
    driverCount_.assign(nets, 0);
    used_.assign(nets, false);
    bool ok = true;
    auto checkId = [&](NetId n, const std::string& what) {
      if (n != kNoNet && n >= nets) {
        add(Rule::kWidthMismatch, Severity::kError, what,
            "references net id " + std::to_string(n) + " out of range (" +
                std::to_string(nets) + " nets)");
        ok = false;
        return false;
      }
      return true;
    };
    auto use = [&](NetId n, const std::string& what) {
      if (n != kNoNet && checkId(n, what)) used_[n] = true;
    };
    auto drive = [&](NetId n, const std::string& what) {
      if (n != kNoNet && checkId(n, what)) ++driverCount_[n];
    };
    for (const auto& p : m_.inputs()) drive(p.net, "input '" + p.name + "'");
    for (const auto& p : m_.outputs()) use(p.net, "output '" + p.name + "'");
    for (std::size_t i = 0; i < m_.cells().size(); ++i) {
      const Cell& c = m_.cells()[i];
      const std::string loc = "cell#" + std::to_string(i);
      drive(c.output, loc);
      for (NetId in : c.inputs) use(in, loc);
    }
    for (const auto& f : m_.dffs()) {
      const std::string loc = "register '" + f.name + "'";
      drive(f.q, loc);
      use(f.d, loc);
      use(f.enable, loc);
      use(f.syncReset, loc);
    }
    for (const auto& mem : m_.memories()) {
      const std::string loc = "memory '" + mem.name + "'";
      for (const auto& rp : mem.readPorts) {
        drive(rp.data, loc);
        use(rp.addr, loc);
      }
      for (const auto& wp : mem.writePorts) {
        use(wp.enable, loc);
        use(wp.addr, loc);
        use(wp.data, loc);
      }
    }
    for (const auto& inst : m_.instances()) {
      const std::string loc = "instance '" + inst.name + "'";
      for (const auto& [port, net] : inst.portMap) {
        // Child outputs drive the bound net; child inputs read it.
        if (inst.module->findOutput(port) != kNoNet)
          drive(net, loc);
        else
          use(net, loc);
      }
    }
    return ok;
  }

  void checkDrivers() {
    for (NetId n = 0; n < m_.netCount(); ++n) {
      if (driverCount_[n] > 1)
        add(Rule::kMultiplyDrivenNet, Severity::kError, netRef(n),
            std::to_string(driverCount_[n]) +
                " drivers (single-driver rule)");
      if (driverCount_[n] == 0 && used_[n])
        add(Rule::kUndrivenNet, Severity::kError, netRef(n),
            "read by logic or a port but has no driver");
    }
  }

  void checkPorts() {
    for (const auto& p : m_.inputs()) {
      if (!used_[p.net])
        add(Rule::kUnconnectedPort, Severity::kWarning,
            "input '" + p.name + "'",
            "never read by any cell, register, memory or output");
    }
    for (const auto& p : m_.outputs()) {
      if (driverCount_[p.net] == 0)
        add(Rule::kUnconnectedPort, Severity::kError,
            "output '" + p.name + "'", "not driven by anything");
    }
  }

  void checkWidths() {
    for (std::size_t i = 0; i < m_.cells().size(); ++i) {
      const Cell& c = m_.cells()[i];
      const std::string loc =
          "cell#" + std::to_string(i) + " (" + ir::opName(c.op) + ")";
      auto bad = [&](const std::string& msg) {
        add(Rule::kWidthMismatch, Severity::kError, loc, msg);
      };
      auto arity = [&](std::size_t n) {
        if (c.inputs.size() != n) {
          bad("expects " + std::to_string(n) + " inputs, has " +
              std::to_string(c.inputs.size()));
          return false;
        }
        return true;
      };
      const unsigned out = m_.netWidth(c.output);
      auto w = [&](unsigned i2) { return m_.netWidth(c.inputs[i2]); };
      switch (c.op) {
        case ir::Op::kConst:
          if (!arity(0)) break;
          if (c.constVal.width() != out)
            bad("constant width " + std::to_string(c.constVal.width()) +
                " != output width " + std::to_string(out));
          break;
        case ir::Op::kAdd: case ir::Op::kSub: case ir::Op::kMul:
        case ir::Op::kUDiv: case ir::Op::kURem: case ir::Op::kSDiv:
        case ir::Op::kSRem: case ir::Op::kAnd: case ir::Op::kOr:
        case ir::Op::kXor:
          if (!arity(2)) break;
          if (w(0) != w(1) || w(0) != out)
            bad("operand/output widths " + std::to_string(w(0)) + "/" +
                std::to_string(w(1)) + "/" + std::to_string(out) +
                " must all agree");
          break;
        case ir::Op::kNeg: case ir::Op::kNot:
          if (!arity(1)) break;
          if (w(0) != out) bad("input and output widths must agree");
          break;
        case ir::Op::kShl: case ir::Op::kLShr: case ir::Op::kAShr:
          if (!arity(2)) break;
          if (w(0) != out) bad("value and output widths must agree");
          break;
        case ir::Op::kEq: case ir::Op::kNe: case ir::Op::kULt:
        case ir::Op::kULe: case ir::Op::kSLt: case ir::Op::kSLe:
          if (!arity(2)) break;
          if (w(0) != w(1)) bad("comparison operand widths must agree");
          if (out != 1) bad("comparison output must be 1 bit");
          break;
        case ir::Op::kMux:
          if (!arity(3)) break;
          if (w(0) != 1) bad("mux selector must be 1 bit");
          if (w(1) != w(2) || w(1) != out) bad("mux arm widths must agree");
          break;
        case ir::Op::kConcat:
          if (!arity(2)) break;
          if (w(0) + w(1) != out) bad("concat output width must be the sum");
          break;
        case ir::Op::kExtract:
          if (!arity(1)) break;
          if (c.attr0 >= w(0) || c.attr1 > c.attr0)
            bad("extract [" + std::to_string(c.attr0) + ":" +
                std::to_string(c.attr1) + "] of width " +
                std::to_string(w(0)));
          else if (out != c.attr0 - c.attr1 + 1)
            bad("extract output width mismatch");
          break;
        case ir::Op::kZExt: case ir::Op::kSExt:
          if (!arity(1)) break;
          if (c.attr0 < w(0) || out != c.attr0)
            bad("extension to width " + std::to_string(c.attr0) +
                " from width " + std::to_string(w(0)));
          break;
        case ir::Op::kRedAnd: case ir::Op::kRedOr: case ir::Op::kRedXor:
          if (!arity(1)) break;
          if (out != 1) bad("reduction output must be 1 bit");
          break;
        default:
          bad("op is not a valid combinational cell");
      }
    }
  }

  void checkRegisters() {
    for (const auto& f : m_.dffs()) {
      if (f.d == kNoNet)
        add(Rule::kUnconnectedRegister, Severity::kError,
            "register '" + f.name + "'",
            "has no d input (next-state driver was never connected)");
    }
  }

  /// Dead cells: reverse reachability from the module's observable roots.
  void checkDeadCells() {
    std::vector<std::size_t> driverCell(m_.netCount(), SIZE_MAX);
    for (std::size_t i = 0; i < m_.cells().size(); ++i) {
      const NetId out = m_.cells()[i].output;
      if (out < m_.netCount()) driverCell[out] = i;
    }
    std::vector<bool> live(m_.netCount(), false);
    std::vector<NetId> stack;
    auto root = [&](NetId n) {
      if (n != kNoNet && n < m_.netCount() && !live[n]) {
        live[n] = true;
        stack.push_back(n);
      }
    };
    for (const auto& p : m_.outputs()) root(p.net);
    for (const auto& f : m_.dffs()) {
      root(f.d);
      root(f.enable);
      root(f.syncReset);
    }
    for (const auto& mem : m_.memories()) {
      for (const auto& rp : mem.readPorts) root(rp.addr);
      for (const auto& wp : mem.writePorts) {
        root(wp.enable);
        root(wp.addr);
        root(wp.data);
      }
    }
    for (const auto& inst : m_.instances())
      for (const auto& [port, net] : inst.portMap)
        if (inst.module->findOutput(port) == kNoNet) root(net);
    while (!stack.empty()) {
      const NetId n = stack.back();
      stack.pop_back();
      const std::size_t drv = driverCell[n];
      if (drv == SIZE_MAX) continue;
      for (NetId in : m_.cells()[drv].inputs) root(in);
    }
    for (std::size_t i = 0; i < m_.cells().size(); ++i) {
      const NetId out = m_.cells()[i].output;
      if (out < m_.netCount() && !live[out])
        add(Rule::kDeadCell, Severity::kWarning,
            "cell#" + std::to_string(i) + " (" +
                ir::opName(m_.cells()[i].op) + ") -> " + netRef(out),
            "output reaches no port, register or memory (dead logic)");
    }
  }

  bool checkCombCycle() {
    const auto cycle = rtl::findCombinationalCycle(m_);
    if (!cycle.has_value()) return false;
    add(Rule::kCombinationalCycle, Severity::kError,
        netRef(m_.cells()[cycle->cells.front()].output),
        "combinational cycle: " + cycle->describe(m_));
    return true;
  }

  /// Forward constant propagation in levelized order; flags muxes whose
  /// selector is provably constant and output ports that fold to constants.
  void constantPropagate() {
    const auto& cells = m_.cells();
    std::vector<std::optional<bv::BitVector>> known(m_.netCount());
    for (std::size_t idx : rtl::levelize(m_)) {
      const Cell& c = cells[idx];
      std::vector<const bv::BitVector*> ins;
      bool allKnown = true;
      for (NetId in : c.inputs) {
        if (known[in].has_value()) {
          ins.push_back(&*known[in]);
        } else {
          allKnown = false;
          break;
        }
      }
      if (c.op == ir::Op::kMux && known[c.inputs[0]].has_value()) {
        const bool sel = !known[c.inputs[0]]->isZero();
        add(Rule::kUnreachableMuxArm, Severity::kWarning,
            "cell#" + std::to_string(idx) + " -> " + netRef(c.output),
            std::string("mux selector is provably constant ") +
                (sel ? "1: else" : "0: then") + " arm is unreachable");
        // Propagate through the live arm even if the other is unknown.
        const NetId arm = c.inputs[sel ? 1 : 2];
        if (known[arm].has_value()) known[c.output] = known[arm];
        continue;
      }
      // Folded with ir::applyOp, the semantics rtl::Simulator runs.
      if (!allKnown) continue;
      if (c.op == ir::Op::kConst)
        known[c.output] = c.constVal;
      else if (ir::isScalarOp(c.op))
        known[c.output] = ir::applyOp(c.op, ins.data(), c.attr0, c.attr1);
    }
    for (const auto& p : m_.outputs()) {
      if (known[p.net].has_value())
        add(Rule::kConstantOutput, Severity::kWarning,
            "output '" + p.name + "'",
            "provably constant " + known[p.net]->toString(16) +
                " for every input");
    }
  }

  const Module& m_;
  std::string where_;
  DrcReport& out_;
  std::vector<unsigned> driverCount_;
  std::vector<bool> used_;
};

}  // namespace

void checkNetlist(const Module& m, const std::string& where, DrcReport& out) {
  NetlistChecker(m, where.empty() ? m.name() : where, out).run();
}

}  // namespace dfv::drc
