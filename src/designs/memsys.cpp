#include "designs/memsys.h"

#include "rtl/sim.h"

namespace dfv::designs {

std::vector<std::uint8_t> memGolden(
    const std::vector<workload::MemRequest>& trace) {
  std::uint8_t mem[256] = {0};
  std::vector<std::uint8_t> out;
  out.reserve(trace.size());
  for (const auto& req : trace) {
    if (req.write) {
      mem[req.addr] = req.data;
      out.push_back(req.data);  // writes echo the written value
    } else {
      out.push_back(mem[req.addr]);
    }
  }
  return out;
}

namespace {
constexpr unsigned kLines = 8;
constexpr unsigned kIdxW = 3;
constexpr unsigned kTagW = 5;
// FSM states.
constexpr unsigned kIdle = 0;
constexpr unsigned kMiss1 = 1;
constexpr unsigned kMiss2 = 2;
constexpr unsigned kFill = 3;
}  // namespace

rtl::Module makeCacheRtl() {
  rtl::Module m("cache");
  rtl::NetId reqValid = m.addInput("req_valid", 1);
  rtl::NetId reqWrite = m.addInput("req_write", 1);
  rtl::NetId reqAddr = m.addInput("req_addr", 8);
  rtl::NetId reqWdata = m.addInput("req_wdata", 8);

  // Cache state: per-line data/tag/valid registers.
  std::vector<rtl::NetId> lineData(kLines), lineTag(kLines), lineValid(kLines);
  for (unsigned i = 0; i < kLines; ++i) {
    lineData[i] = m.addDff("d" + std::to_string(i), 8, 0);
    lineTag[i] = m.addDff("t" + std::to_string(i), kTagW, 0);
    lineValid[i] = m.addDff("v" + std::to_string(i), 1, 0);
  }
  rtl::NetId state = m.addDff("state", 2, kIdle);
  rtl::NetId missAddr = m.addDff("miss_addr", 8, 0);

  // Backing memory: 256 x 8, synchronous read (1-cycle latency).
  const std::size_t backing = m.addMemory("backing", 8, 256);

  rtl::NetId idx = m.opExtract(reqAddr, kIdxW - 1, 0);
  rtl::NetId tag = m.opExtract(reqAddr, 7, kIdxW);
  // Line lookup: mux trees over the 8 lines.
  auto muxByIdx = [&](const std::vector<rtl::NetId>& nets, rtl::NetId sel) {
    rtl::NetId out = nets[0];
    for (unsigned i = 1; i < kLines; ++i) {
      rtl::NetId hit = m.opEq(sel, m.constantUint(kIdxW, i));
      out = m.opMux(hit, nets[i], out);
    }
    return out;
  };
  rtl::NetId curData = muxByIdx(lineData, idx);
  rtl::NetId curTag = muxByIdx(lineTag, idx);
  rtl::NetId curValid = muxByIdx(lineValid, idx);
  rtl::NetId hit = m.opAnd(curValid, m.opEq(curTag, tag));

  rtl::NetId isIdle = m.opEq(state, m.constantUint(2, kIdle));
  rtl::NetId isFill = m.opEq(state, m.constantUint(2, kFill));
  rtl::NetId accept = m.opAnd(isIdle, reqValid);
  rtl::NetId isRead = m.opNot(reqWrite);
  rtl::NetId readHit = m.opAnd(accept, m.opAnd(isRead, hit));
  rtl::NetId readMiss = m.opAnd(accept, m.opAnd(isRead, m.opNot(hit)));
  rtl::NetId doWrite = m.opAnd(accept, reqWrite);

  // Backing ports: reads for misses, write-through for stores.
  rtl::NetId raddr = m.opMux(readMiss, reqAddr, missAddr);
  rtl::NetId rdata = m.memReadPort(backing, raddr);
  m.memWritePort(backing, doWrite, reqAddr, reqWdata);

  // FSM.
  rtl::NetId one2 = m.constantUint(2, 1);
  rtl::NetId stateNext = m.opMux(
      isIdle, m.opMux(readMiss, m.constantUint(2, kMiss1), m.constantUint(2, kIdle)),
      m.opMux(m.opEq(state, m.constantUint(2, kFill)), m.constantUint(2, kIdle),
              m.opAdd(state, one2)));
  m.connectDff(state, stateNext);
  m.connectDff(missAddr, reqAddr, readMiss);

  // Line update: refill on kFill, write-through update on store hits.
  rtl::NetId missIdx = m.opExtract(missAddr, kIdxW - 1, 0);
  rtl::NetId missTag = m.opExtract(missAddr, 7, kIdxW);
  rtl::NetId writeHitAll = m.opAnd(doWrite, hit);
  for (unsigned i = 0; i < kLines; ++i) {
    rtl::NetId iConst = m.constantUint(kIdxW, i);
    rtl::NetId fillThis = m.opAnd(isFill, m.opEq(missIdx, iConst));
    rtl::NetId writeThis = m.opAnd(writeHitAll, m.opEq(idx, iConst));
    rtl::NetId dNext =
        m.opMux(fillThis, rdata, m.opMux(writeThis, reqWdata, lineData[i]));
    m.connectDff(lineData[i], dNext);
    m.connectDff(lineTag[i], m.opMux(fillThis, missTag, lineTag[i]));
    m.connectDff(lineValid[i],
                 m.opMux(fillThis, m.constantUint(1, 1), lineValid[i]));
  }

  // Responses: stores and read hits respond in the request cycle; misses
  // respond from the refill data in the kFill state.
  rtl::NetId respValid = m.opOr(doWrite, m.opOr(readHit, isFill));
  rtl::NetId respData =
      m.opMux(isFill, rdata, m.opMux(doWrite, reqWdata, curData));
  m.addOutput("req_ready", isIdle);
  m.addOutput("resp_valid", respValid);
  m.addOutput("resp_data", respData);
  return m;
}

MemRunResult runCache(const std::vector<workload::MemRequest>& trace) {
  rtl::Simulator sim(makeCacheRtl());
  const rtl::NetId reqValid = sim.inputPort("req_valid");
  const rtl::NetId reqWrite = sim.inputPort("req_write");
  const rtl::NetId reqAddr = sim.inputPort("req_addr");
  const rtl::NetId reqWdata = sim.inputPort("req_wdata");
  const rtl::NetId reqReady = sim.outputPort("req_ready");
  const rtl::NetId respValid = sim.outputPort("resp_valid");
  const rtl::NetId respData = sim.outputPort("resp_data");
  MemRunResult result;
  std::size_t next = 0;
  std::vector<std::uint64_t> issueCycles;
  std::uint64_t cycle = 0;
  std::uint64_t guard = trace.size() * 8 + 64;
  while (result.responses.size() < trace.size()) {
    DFV_CHECK_MSG(cycle < guard, "cache run did not converge");
    sim.evalCombinational();
    const bool ready = !sim.netValue(reqReady).isZero();
    // Issue combinationally in the same cycle the DUT is ready.
    if (ready && next < trace.size()) {
      sim.setInputUint(reqValid, 1);
      sim.setInputUint(reqWrite, trace[next].write ? 1 : 0);
      sim.setInputUint(reqAddr, trace[next].addr);
      sim.setInputUint(reqWdata, trace[next].data);
      issueCycles.push_back(cycle);
      ++next;
    } else {
      sim.setInputUint(reqValid, 0);
      sim.setInputUint(reqWrite, 0);
      sim.setInputUint(reqAddr, 0);
      sim.setInputUint(reqWdata, 0);
    }
    sim.evalCombinational();
    if (!sim.netValue(respValid).isZero()) {
      result.responses.push_back(
          static_cast<std::uint8_t>(sim.netValue(respData).toUint64()));
      const std::size_t respIdx = result.responses.size() - 1;
      const std::uint64_t latency = cycle - issueCycles[respIdx];
      result.latencies.push_back(latency);
      if (!trace[respIdx].write) {
        if (latency == 0)
          ++result.readHits;
        else
          ++result.readMisses;
      }
    }
    sim.clockEdge();
    ++cycle;
  }
  result.cyclesRun = cycle;
  return result;
}

}  // namespace dfv::designs
