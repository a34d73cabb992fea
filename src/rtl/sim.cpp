#include "rtl/sim.h"

#include <algorithm>
#include <unordered_map>

namespace dfv::rtl {

namespace {
using Instr = ir::Tape::Instr;
constexpr ir::Tape::Slot kNone = ir::Tape::kNone;
}  // namespace

Simulator::Simulator(const Module& m) : flat_(m.isFlat() ? m : m.flatten()) {
  flat_.validate();
  // Report the complete loop, not just one net on it.
  const auto cycle = findCombinationalCycle(flat_);
  DFV_CHECK_MSG(!cycle.has_value(),
                "combinational cycle: " << cycle->describe(flat_));
  netSlot_.assign(flat_.netCount(), kNone);
  auto slotOf = [&](NetId n) {
    if (netSlot_[n] == kNone)
      netSlot_[n] = tape_.addSlot(ir::Value(bv::BitVector(flat_.netWidth(n))));
    return netSlot_[n];
  };
  for (std::size_t mi = 0; mi < flat_.memories().size(); ++mi)
    memSlot_.push_back(tape_.addSlot(ir::Value::makeArray({})));
  // Combinational phase: a constant is a preset slot, every other cell is
  // one instruction.
  for (std::size_t idx : levelize(flat_)) {
    const Cell& c = flat_.cells()[idx];
    if (c.op == ir::Op::kConst) {
      netSlot_[c.output] = tape_.addSlot(ir::Value(c.constVal));
      continue;
    }
    Instr i{.op = c.op, .attr0 = c.attr0, .attr1 = c.attr1};
    for (std::size_t k = 0; k < c.inputs.size(); ++k)
      i.src[k] = slotOf(c.inputs[k]);
    i.dst = slotOf(c.output);
    tape_.emit(i);
  }
  for (NetId n = 0; n < flat_.netCount(); ++n) slotOf(n);
  combEnd_ = tape_.size();
  compileEdge();
  reset();
}

void Simulator::compileEdge() {
  // One action per register, per memory read port and per memory (its write
  // ports in port order).  Each writes one slot and must read pre-edge
  // values, so it runs before the action writing any slot it reads.
  struct Action {
    std::vector<Instr> code;
    Slot writes;
    std::vector<Slot> reads;
    bool staged = false;  // writes a scratch slot, copied back at the end
  };
  auto copy = [&](Slot dst, Slot src, Slot guard) {  // a same-width zext
    return Instr{.op = ir::Op::kZExt,
                 .dst = dst,
                 .src = {src, 0, 0},
                 .attr0 = tape_.slot(src).scalar.width(),
                 .guard = guard};
  };
  auto slotOf = [&](NetId n) { return n == kNoNet ? kNone : netSlot_[n]; };
  std::vector<Action> actions;
  for (const Dff& f : flat_.dffs()) {
    const Slot q = netSlot_[f.q], en = slotOf(f.enable),
               rst = slotOf(f.syncReset);
    Action a{{copy(q, netSlot_[f.d], en)}, q, {netSlot_[f.d], en, rst}};
    if (rst != kNone)
      a.code.push_back(copy(q, tape_.addSlot(ir::Value(f.resetValue)), rst));
    a.staged = rst == q;  // its reset guard would read the new value
    actions.push_back(std::move(a));
  }
  for (std::size_t mi = 0; mi < flat_.memories().size(); ++mi) {
    const Memory& m = flat_.memories()[mi];
    const Slot mem = memSlot_[mi];
    for (const auto& rp : m.readPorts) {
      const Instr i{.op = ir::Op::kArrayRead,
                    .dst = netSlot_[rp.data],
                    .src = {mem, netSlot_[rp.addr], 0}};
      actions.push_back({{i}, i.dst, {mem, i.src[1]}});
    }
    Action writes{{}, mem, {}};
    for (const auto& wp : m.writePorts) {
      const Instr i{.op = ir::Op::kArrayWrite,  // in place: dst == src[0]
                    .dst = mem,
                    .src = {mem, netSlot_[wp.addr], netSlot_[wp.data]},
                    .guard = netSlot_[wp.enable]};
      writes.code.push_back(i);
      writes.reads.insert(writes.reads.end(), {i.guard, i.src[1], i.src[2]});
    }
    if (!writes.code.empty()) actions.push_back(std::move(writes));
  }

  // Kahn's order over "reads before writes"; when only cycles remain, stage
  // the first pending register or read port (every cycle has one: a
  // memory's writes wait only on its read ports).
  const std::size_t n = actions.size();
  std::unordered_map<Slot, std::size_t> writer;
  for (std::size_t x = 0; x < n; ++x) writer[actions[x].writes] = x;
  std::vector<std::vector<std::size_t>> unblocks(n);
  std::vector<unsigned> pending(n, 0);
  for (std::size_t y = 0; y < n; ++y)
    for (Slot r : actions[y].reads) {
      auto it = writer.find(r);
      if (it == writer.end() || it->second == y) continue;
      unblocks[y].push_back(it->second);
      ++pending[it->second];
    }
  std::vector<std::size_t> order;
  std::vector<bool> queued(n, false);
  auto enqueue = [&](std::size_t x) {
    queued[x] = true;
    order.push_back(x);
  };
  for (std::size_t x = 0; x < n; ++x)
    if (actions[x].staged || pending[x] == 0) enqueue(x);
  for (std::size_t head = 0; order.size() < n; ++head) {
    if (head == order.size()) {
      std::size_t x = 0;
      while (x < n && (queued[x] || tape_.slot(actions[x].writes).isArray)) ++x;
      DFV_CHECK(x < n);
      actions[x].staged = true;
      enqueue(x);
    }
    for (std::size_t x : unblocks[order[head]])
      if (!queued[x] && --pending[x] == 0) enqueue(x);
  }

  std::vector<Instr> commits;
  for (std::size_t x : order) {
    Action& a = actions[x];
    if (a.staged) {
      const Slot scratch = tape_.addSlot(tape_.slot(a.writes));
      tape_.emit(copy(scratch, a.writes, kNone));
      for (Instr& i : a.code) i.dst = scratch;
      commits.push_back(copy(a.writes, scratch, kNone));
    }
    for (const Instr& i : a.code) tape_.emit(i);
  }
  for (const Instr& i : commits) tape_.emit(i);
}

void Simulator::reset() {
  combEvaluated_ = false;
  watchHistory_.clear();
  for (const Dff& f : flat_.dffs()) tape_.slot(netSlot_[f.q]) = f.resetValue;
  for (std::size_t mi = 0; mi < flat_.memories().size(); ++mi) {
    const Memory& m = flat_.memories()[mi];
    auto& contents = tape_.slot(memSlot_[mi]).array;
    if (m.init.empty())
      contents.assign(m.depth, bv::BitVector(m.width));
    else
      contents = m.init;
    for (const auto& rp : m.readPorts)
      tape_.slot(netSlot_[rp.data]) = bv::BitVector(m.width);
  }
}

NetId Simulator::inputPort(const std::string& name) const {
  const NetId n = flat_.findInput(name);
  DFV_CHECK_MSG(n != kNoNet, "no input named '" << name << "'");
  return n;
}

NetId Simulator::outputPort(const std::string& name) const {
  const NetId n = flat_.findOutput(name);
  DFV_CHECK_MSG(n != kNoNet, "no output named '" << name << "'");
  return n;
}

void Simulator::setInput(NetId input, const bv::BitVector& v) {
  DFV_CHECK_MSG(std::any_of(flat_.inputs().begin(), flat_.inputs().end(),
                            [&](const auto& p) { return p.net == input; }),
                "net " << input << " is not an input port");
  DFV_CHECK_MSG(v.width() == flat_.netWidth(input),
                "input '" << flat_.netName(input) << "' width "
                          << flat_.netWidth(input) << ", got " << v.width());
  tape_.slot(netSlot_[input]).scalar = v;
  combEvaluated_ = false;
}

void Simulator::setInputUint(NetId input, std::uint64_t v) {
  setInput(input, bv::BitVector::fromUint(flat_.netWidth(input), v));
}

void Simulator::evalCombinational() {
  tape_.run(0, combEnd_);
  combEvaluated_ = true;
  if (!watched_.empty()) {
    std::vector<bv::BitVector> snap;
    snap.reserve(watched_.size());
    for (NetId n : watched_) snap.push_back(netValue(n));
    watchHistory_.push_back(std::move(snap));
  }
}

void Simulator::clockEdge() {
  DFV_CHECK_MSG(combEvaluated_,
                "clockEdge before evalCombinational in this cycle");
  tape_.run(combEnd_, tape_.size());
  combEvaluated_ = false;
}

std::unordered_map<std::string, bv::BitVector> Simulator::step(
    const std::unordered_map<std::string, bv::BitVector>& inputs) {
  for (const auto& [name, v] : inputs) setInput(name, v);
  evalCombinational();
  std::unordered_map<std::string, bv::BitVector> out;
  for (const auto& p : flat_.outputs()) out.emplace(p.name, netValue(p.net));
  clockEdge();
  return out;
}

}  // namespace dfv::rtl
