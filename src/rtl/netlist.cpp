#include "rtl/netlist.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace dfv::rtl {

NetId Module::addNet(unsigned width, std::string name) {
  DFV_CHECK_MSG(width >= 1, "net width must be >= 1");
  const NetId id = static_cast<NetId>(netWidths_.size());
  netWidths_.push_back(width);
  netNames_.push_back(name.empty() ? "n" + std::to_string(id)
                                   : std::move(name));
  return id;
}

NetId Module::addInput(const std::string& name, unsigned width) {
  DFV_CHECK_MSG(findInput(name) == kNoNet,
                "input '" << name << "' already declared");
  const NetId n = addNet(width, name);
  inputs_.push_back(PortRef{name, n});
  return n;
}

void Module::addOutput(const std::string& name, NetId net) {
  checkNet(net);
  DFV_CHECK_MSG(findOutput(name) == kNoNet,
                "output '" << name << "' already declared");
  outputs_.push_back(PortRef{name, net});
}

NetId Module::findInput(const std::string& name) const {
  for (const auto& p : inputs_)
    if (p.name == name) return p.net;
  return kNoNet;
}

NetId Module::findOutput(const std::string& name) const {
  for (const auto& p : outputs_)
    if (p.name == name) return p.net;
  return kNoNet;
}

NetId Module::emitCell(Cell c) {
  cells_.push_back(std::move(c));
  return cells_.back().output;
}

NetId Module::constant(const bv::BitVector& v) {
  Cell c;
  c.op = ir::Op::kConst;
  c.constVal = v;
  c.output = addNet(v.width());
  return emitCell(std::move(c));
}

NetId Module::unary(ir::Op op, NetId a) {
  checkNet(a);
  Cell c;
  c.op = op;
  c.inputs = {a};
  if (op == ir::Op::kZExt || op == ir::Op::kSExt) c.attr0 = netWidth(a);
  c.output = addNet(netWidth(a));
  return emitCell(std::move(c));
}

NetId Module::binary(ir::Op op, NetId a, NetId b) {
  checkNet(a);
  checkNet(b);
  DFV_CHECK_MSG(netWidth(a) == netWidth(b),
                ir::opName(op) << " width mismatch: " << netWidth(a) << " vs "
                               << netWidth(b));
  Cell c;
  c.op = op;
  c.inputs = {a, b};
  c.output = addNet(netWidth(a));
  return emitCell(std::move(c));
}

NetId Module::compareOp(ir::Op op, NetId a, NetId b) {
  checkNet(a);
  checkNet(b);
  DFV_CHECK_MSG(netWidth(a) == netWidth(b), ir::opName(op) << " width mismatch");
  Cell c;
  c.op = op;
  c.inputs = {a, b};
  c.output = addNet(1);
  return emitCell(std::move(c));
}

NetId Module::shiftOp(ir::Op op, NetId a, NetId amt) {
  checkNet(a);
  checkNet(amt);
  Cell c;
  c.op = op;
  c.inputs = {a, amt};
  c.output = addNet(netWidth(a));
  return emitCell(std::move(c));
}

NetId Module::reduceOp(ir::Op op, NetId a) {
  checkNet(a);
  Cell c;
  c.op = op;
  c.inputs = {a};
  c.output = addNet(1);
  return emitCell(std::move(c));
}

NetId Module::opMux(NetId sel, NetId thenN, NetId elseN) {
  checkNet(sel);
  checkNet(thenN);
  checkNet(elseN);
  DFV_CHECK_MSG(netWidth(sel) == 1, "mux selector must be 1 bit");
  DFV_CHECK_MSG(netWidth(thenN) == netWidth(elseN), "mux width mismatch");
  Cell c;
  c.op = ir::Op::kMux;
  c.inputs = {sel, thenN, elseN};
  c.output = addNet(netWidth(thenN));
  return emitCell(std::move(c));
}

NetId Module::opConcat(NetId hi, NetId lo) {
  checkNet(hi);
  checkNet(lo);
  Cell c;
  c.op = ir::Op::kConcat;
  c.inputs = {hi, lo};
  c.output = addNet(netWidth(hi) + netWidth(lo));
  return emitCell(std::move(c));
}

NetId Module::opExtract(NetId a, unsigned hi, unsigned lo) {
  checkNet(a);
  DFV_CHECK_MSG(hi < netWidth(a) && lo <= hi,
                "extract [" << hi << ':' << lo << "] of width " << netWidth(a));
  Cell c;
  c.op = ir::Op::kExtract;
  c.inputs = {a};
  c.attr0 = hi;
  c.attr1 = lo;
  c.output = addNet(hi - lo + 1);
  return emitCell(std::move(c));
}

NetId Module::opZExt(NetId a, unsigned newWidth) {
  checkNet(a);
  DFV_CHECK_MSG(newWidth >= netWidth(a), "zext to narrower width");
  Cell c;
  c.op = ir::Op::kZExt;
  c.inputs = {a};
  c.attr0 = newWidth;
  c.output = addNet(newWidth);
  return emitCell(std::move(c));
}

NetId Module::opSExt(NetId a, unsigned newWidth) {
  checkNet(a);
  DFV_CHECK_MSG(newWidth >= netWidth(a), "sext to narrower width");
  Cell c;
  c.op = ir::Op::kSExt;
  c.inputs = {a};
  c.attr0 = newWidth;
  c.output = addNet(newWidth);
  return emitCell(std::move(c));
}

NetId Module::addDff(const std::string& name, unsigned width,
                     const bv::BitVector& resetValue, NetId d, NetId enable,
                     NetId syncReset) {
  DFV_CHECK_MSG(resetValue.width() == width, "reset value width mismatch");
  Dff ff;
  ff.name = name;
  ff.q = addNet(width, name);
  ff.resetValue = resetValue;
  dffs_.push_back(ff);
  const NetId q = dffs_.back().q;
  if (d != kNoNet || enable != kNoNet || syncReset != kNoNet)
    connectDff(q, d, enable, syncReset);
  return q;
}

void Module::connectDff(NetId q, NetId d, NetId enable, NetId syncReset) {
  auto it = std::find_if(dffs_.begin(), dffs_.end(),
                         [&](const Dff& f) { return f.q == q; });
  DFV_CHECK_MSG(it != dffs_.end(), "connectDff: net is not a register output");
  if (d != kNoNet) {
    checkNet(d);
    DFV_CHECK_MSG(netWidth(d) == netWidth(q), "dff d width mismatch");
    it->d = d;
  }
  if (enable != kNoNet) {
    checkNet(enable);
    DFV_CHECK_MSG(netWidth(enable) == 1, "dff enable must be 1 bit");
    it->enable = enable;
  }
  if (syncReset != kNoNet) {
    checkNet(syncReset);
    DFV_CHECK_MSG(netWidth(syncReset) == 1, "dff syncReset must be 1 bit");
    it->syncReset = syncReset;
  }
}

std::size_t Module::addMemory(const std::string& name, unsigned width,
                              unsigned depth,
                              std::vector<bv::BitVector> init) {
  DFV_CHECK_MSG(width >= 1 && depth >= 2, "memory must be >=2 deep");
  if (!init.empty()) {
    DFV_CHECK_MSG(init.size() == depth, "memory init size mismatch");
    for (const auto& v : init)
      DFV_CHECK_MSG(v.width() == width, "memory init width mismatch");
  }
  Memory m;
  m.name = name;
  m.width = width;
  m.depth = depth;
  m.init = std::move(init);
  memories_.push_back(std::move(m));
  return memories_.size() - 1;
}

NetId Module::memReadPort(std::size_t memIdx, NetId addr) {
  DFV_CHECK(memIdx < memories_.size());
  Memory& m = memories_[memIdx];
  checkNet(addr);
  DFV_CHECK_MSG(netWidth(addr) == m.addrWidth(),
                "read addr width " << netWidth(addr) << " != "
                                   << m.addrWidth());
  Memory::ReadPort rp;
  rp.addr = addr;
  rp.data = addNet(m.width, m.name + ".rdata" +
                                std::to_string(m.readPorts.size()));
  m.readPorts.push_back(rp);
  return rp.data;
}

void Module::memWritePort(std::size_t memIdx, NetId enable, NetId addr,
                          NetId data) {
  DFV_CHECK(memIdx < memories_.size());
  Memory& m = memories_[memIdx];
  checkNet(enable);
  checkNet(addr);
  checkNet(data);
  DFV_CHECK_MSG(netWidth(enable) == 1, "write enable must be 1 bit");
  DFV_CHECK_MSG(netWidth(addr) == m.addrWidth(), "write addr width mismatch");
  DFV_CHECK_MSG(netWidth(data) == m.width, "write data width mismatch");
  m.writePorts.push_back(Memory::WritePort{enable, addr, data});
}

void Module::replaceCell(std::size_t idx, Cell replacement) {
  DFV_CHECK(idx < cells_.size());
  DFV_CHECK_MSG(replacement.output == cells_[idx].output,
                "replacement must drive the same net");
  for (NetId in : replacement.inputs) checkNet(in);
  cells_[idx] = std::move(replacement);
}

void Module::addInstance(const std::string& name, const Module& sub,
                         std::map<std::string, NetId> portMap) {
  for (const auto& p : sub.inputs()) {
    auto it = portMap.find(p.name);
    DFV_CHECK_MSG(it != portMap.end(),
                  "instance '" << name << "': unbound input '" << p.name << "'");
    checkNet(it->second);
    DFV_CHECK_MSG(netWidth(it->second) == sub.netWidth(p.net),
                  "instance '" << name << "': width mismatch on '" << p.name
                               << "'");
  }
  for (const auto& p : sub.outputs()) {
    auto it = portMap.find(p.name);
    DFV_CHECK_MSG(it != portMap.end(), "instance '" << name
                                                    << "': unbound output '"
                                                    << p.name << "'");
    checkNet(it->second);
    DFV_CHECK_MSG(netWidth(it->second) == sub.netWidth(p.net),
                  "instance '" << name << "': width mismatch on '" << p.name
                               << "'");
  }
  DFV_CHECK_MSG(portMap.size() == sub.inputs().size() + sub.outputs().size(),
                "instance '" << name << "': extra bindings in port map");
  instances_.push_back(Instance{name, &sub, std::move(portMap)});
}

void Module::flattenInto(Module& flat, const std::string& prefix,
                         const std::map<std::string, NetId>& portMap) const {
  // Map from this module's net ids to the flat module's net ids.
  std::vector<NetId> netMap(netWidths_.size(), kNoNet);
  // Input ports alias the actual nets bound by the parent.
  for (const auto& p : inputs_) netMap[p.net] = portMap.at(p.name);
  // Every other net gets a fresh, prefixed net.
  for (NetId n = 0; n < netWidths_.size(); ++n) {
    if (netMap[n] == kNoNet)
      netMap[n] = flat.addNet(netWidths_[n], prefix + netNames_[n]);
  }
  auto mapNet = [&](NetId n) { return n == kNoNet ? kNoNet : netMap[n]; };

  for (const Cell& c : cells_) {
    Cell fc = c;
    for (NetId& n : fc.inputs) n = mapNet(n);
    fc.output = mapNet(fc.output);
    flat.cells_.push_back(std::move(fc));
  }
  for (const Dff& f : dffs_) {
    Dff ff = f;
    ff.name = prefix + f.name;
    ff.d = mapNet(f.d);
    ff.q = mapNet(f.q);
    ff.enable = mapNet(f.enable);
    ff.syncReset = mapNet(f.syncReset);
    flat.dffs_.push_back(std::move(ff));
  }
  for (const Memory& m : memories_) {
    Memory fm = m;
    fm.name = prefix + m.name;
    for (auto& rp : fm.readPorts) {
      rp.addr = mapNet(rp.addr);
      rp.data = mapNet(rp.data);
    }
    for (auto& wp : fm.writePorts) {
      wp.enable = mapNet(wp.enable);
      wp.addr = mapNet(wp.addr);
      wp.data = mapNet(wp.data);
    }
    flat.memories_.push_back(std::move(fm));
  }
  for (const Instance& inst : instances_) {
    std::map<std::string, NetId> childMap;
    for (const auto& [port, net] : inst.portMap)
      childMap.emplace(port, mapNet(net));
    inst.module->flattenInto(flat, prefix + inst.name + ".", childMap);
  }
  // Output ports: the parent bound a net for each; drive it with a buffer
  // from whatever drives the child's output net (the child side is netMap'd
  // already, so just connect with a buffer cell when ids differ).
  for (const auto& p : outputs_) {
    const NetId bound = portMap.at(p.name);
    const NetId inner = netMap[p.net];
    if (bound != inner) {
      Cell buf;
      buf.op = ir::Op::kZExt;
      buf.inputs = {inner};
      buf.attr0 = flat.netWidth(inner);
      buf.output = bound;
      flat.cells_.push_back(std::move(buf));
    }
  }
}

Module Module::flatten() const {
  if (isFlat()) return *this;
  Module flat(name_);
  std::map<std::string, NetId> topMap;
  for (const auto& p : inputs_) {
    const NetId n = flat.addInput(p.name, netWidths_[p.net]);
    topMap.emplace(p.name, n);
  }
  // Pre-create nets for top-level outputs so children can drive them.
  for (const auto& p : outputs_) {
    if (topMap.count(p.name) == 0)
      topMap.emplace(p.name, flat.addNet(netWidths_[p.net], p.name));
  }
  // Flatten self as if instantiated at top with that port map.  Output nets
  // of the top module may be internal nets; treat all outputs via the map.
  flattenInto(flat, "", topMap);
  for (const auto& p : outputs_) flat.addOutput(p.name, topMap.at(p.name));
  flat.validate();
  return flat;
}

void Module::validate() const {
  // Single-driver rule: each net driven by at most one of
  // {cell output, dff q, memory read data, input port}.
  std::vector<int> drivers(netWidths_.size(), 0);
  for (const auto& p : inputs_) drivers[p.net]++;
  for (const auto& c : cells_) drivers[c.output]++;
  for (const auto& f : dffs_) {
    drivers[f.q]++;
    DFV_CHECK_MSG(f.d != kNoNet, "register '" << f.name << "' has no d input");
  }
  for (const auto& m : memories_)
    for (const auto& rp : m.readPorts) drivers[rp.data]++;
  for (NetId n = 0; n < drivers.size(); ++n)
    DFV_CHECK_MSG(drivers[n] <= 1,
                  "net '" << netNames_[n] << "' has " << drivers[n]
                          << " drivers");
}

std::string CombCycle::describe(const Module& m) const {
  std::string out;
  for (std::size_t idx : cells) {
    const Cell& c = m.cells()[idx];
    out += "net '" + m.netName(c.output) + "' (" + ir::opName(c.op) + ") -> ";
  }
  if (!cells.empty())
    out += "net '" + m.netName(m.cells()[cells.front()].output) + "'";
  return out;
}

std::vector<std::size_t> levelize(const Module& m) {
  // Kahn's algorithm: inputs and sequential outputs (dff q, memory read
  // data) drive no cell, so they are the sources.
  const auto& cells = m.cells();
  std::vector<std::size_t> driverCell(m.netCount(), SIZE_MAX);
  for (std::size_t i = 0; i < cells.size(); ++i)
    driverCell[cells[i].output] = i;
  std::vector<unsigned> pendingInputs(cells.size(), 0);
  std::vector<std::vector<std::size_t>> consumers(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (NetId in : cells[i].inputs) {
      const std::size_t drv = driverCell[in];
      if (drv != SIZE_MAX) {
        ++pendingInputs[i];
        consumers[drv].push_back(i);
      }
    }
  }
  std::vector<std::size_t> order;
  order.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (pendingInputs[i] == 0) order.push_back(i);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (std::size_t next : consumers[order[head]])
      if (--pendingInputs[next] == 0) order.push_back(next);
  return order;
}

std::optional<CombCycle> findCombinationalCycle(const Module& m) {
  const auto& cells = m.cells();
  const std::vector<std::size_t> order = levelize(m);
  if (order.size() == cells.size()) return std::nullopt;
  // Cells left out of the order are on or behind a cycle.
  std::vector<bool> unresolved(cells.size(), true);
  for (std::size_t i : order) unresolved[i] = false;
  std::vector<std::size_t> driverCell(m.netCount(), SIZE_MAX);
  for (std::size_t i = 0; i < cells.size(); ++i)
    driverCell[cells[i].output] = i;

  // Walk backwards through unresolved cells (each has at least one
  // unresolved driver) until a cell repeats; the walk from the first repeat
  // is the cycle.  Reverse it so the reported order follows the data flow.
  std::size_t cur = static_cast<std::size_t>(
      std::find(unresolved.begin(), unresolved.end(), true) -
      unresolved.begin());
  std::vector<std::size_t> walk;
  std::vector<bool> onWalk(cells.size(), false);
  while (!onWalk[cur]) {
    onWalk[cur] = true;
    walk.push_back(cur);
    std::size_t next = SIZE_MAX;
    for (NetId in : cells[cur].inputs) {
      const std::size_t drv = driverCell[in];
      if (drv != SIZE_MAX && unresolved[drv]) { next = drv; break; }
    }
    DFV_CHECK_MSG(next != SIZE_MAX, "unresolved cell with no unresolved driver");
    cur = next;
  }
  CombCycle cycle;
  for (std::size_t i = walk.size(); i-- > 0;) {
    cycle.cells.push_back(walk[i]);
    if (walk[i] == cur) break;
  }
  return cycle;
}

std::size_t Module::flatSizeEstimate() const {
  std::size_t total = cells_.size() + dffs_.size();
  for (const auto& inst : instances_) total += inst.module->flatSizeEstimate();
  return total;
}

}  // namespace dfv::rtl
