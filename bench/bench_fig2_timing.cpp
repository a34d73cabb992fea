// FIG2 — reproduces Figure 2 of the paper (§3.2): "Timing alignment between
// SLM and RTL can be non-trivial."
//
// Series reported:
//   1. macpipe (dual-latency lanes) under stall probability p ∈
//      {0, 0.1, 0.3, 0.5}: latency mean/max per lane, out-of-order
//      completions vs SLM issue order, and which scoreboard type gets a
//      clean comparison;
//   2. memsys (flat-array SLM vs cache RTL): the state-dependent latency
//      distribution an untimed SLM gives no hint of;
//   3. a latency histogram (the "timing alignment" picture of Fig 2 in
//      numbers).
//
// Shape to reproduce: RTL output times drift and reorder against the SLM's,
// so cycle-exact comparison fails, in-order comparison needs skew
// tolerance, and out-of-order RTL needs tag-matching transactors.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "cosim/scoreboard.h"
#include "designs/macpipe.h"
#include "designs/memsys.h"
#include "workload/workload.h"

using namespace dfv;

namespace {

std::vector<designs::MacOp> makeOps(std::size_t count) {
  workload::Rng rng(0xf162);
  std::vector<designs::MacOp> ops;
  for (std::size_t i = 0; i < count; ++i)
    ops.push_back(designs::MacOp{static_cast<std::uint8_t>(i & 0xf),
                                 static_cast<std::uint8_t>(rng.next()),
                                 static_cast<std::uint8_t>(rng.next())});
  return ops;
}

struct LaneStats {
  double mean = 0;
  std::uint64_t mx = 0;
};
LaneStats laneStats(const std::vector<designs::MacOp>& ops,
                    const std::vector<std::uint64_t>& lat, bool slowLane) {
  LaneStats s;
  std::uint64_t n = 0, sum = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if ((ops[i].tag & 1) != (slowLane ? 1 : 0)) continue;
    sum += lat[i];
    s.mx = std::max(s.mx, lat[i]);
    ++n;
  }
  s.mean = n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "fig2_timing");
  std::printf("=== FIG2: timing alignment between SLM and RTL ===\n\n");
  if (smoke) std::printf("(--smoke: tiny workloads, no timing claims)\n\n");
  const auto ops = makeOps(smoke ? 64 : 400);

  std::printf("macpipe: dual-lane MAC, one op per un-stalled cycle\n");
  std::printf("  %-8s %-12s %-12s %-10s %-22s\n", "stall p", "fast lat",
              "slow lat", "reordered", "clean comparison needs");
  for (auto [num, den] : {std::pair{0u, 1u}, {1u, 10u}, {3u, 10u}, {1u, 2u}}) {
    const auto policy = num == 0 ? cosim::noStalls()
                                 : cosim::randomStalls(num, den, 99);
    const auto run = designs::runMacPipe(ops, policy, 256);
    const auto fast = laneStats(ops, run.latencies, false);
    const auto slow = laneStats(ops, run.latencies, true);
    // Count out-of-order completions against SLM (issue) order.
    cosim::OutOfOrderScoreboard sb;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // tag+occurrence composite key: tags recur every 16 ops but each is
      // retired before reuse (pipe depth 4 << 16).
      sb.expect((static_cast<std::uint64_t>(i / 16) << 8) | ops[i].tag,
                bv::BitVector::fromUint(16, designs::macGolden(ops[i])), i);
    }
    std::map<std::uint8_t, std::uint64_t> occ;
    std::uint64_t mism = 0;
    for (const auto& c : run.completions) {
      sb.observe((occ[c.tag]++ << 8) | c.tag,
                 bv::BitVector::fromUint(16, c.data), c.cycle);
    }
    auto stats = sb.finish();
    mism = stats.mismatched + stats.pendingDut + stats.pendingRef;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%u/%u", num, den);
    std::printf("  %-8s %4.1f /%3llu   %4.1f /%3llu   %-10llu %s%s\n", buf,
                fast.mean, static_cast<unsigned long long>(fast.mx),
                slow.mean, static_cast<unsigned long long>(slow.mx),
                static_cast<unsigned long long>(sb.reorderedCount()),
                "out-of-order (tags)",
                mism == 0 ? ", clean" : ", NOT CLEAN");
    report.beginRow("macpipe_stalls")
        .field("stall", buf)
        .field("fastMeanLatency", fast.mean)
        .field("slowMeanLatency", slow.mean)
        .field("reordered", sb.reorderedCount())
        .field("mismatched", mism);
  }

  std::printf("\nmemsys: flat-array SLM (0-latency) vs cache RTL\n");
  const auto trace = workload::makeMemTrace(smoke ? 200 : 2000, 0xf2);
  const auto golden = designs::memGolden(trace);
  const auto run = designs::runCache(trace);
  std::map<std::uint64_t, std::uint64_t> histogram;
  for (auto lat : run.latencies) ++histogram[lat];
  std::printf("  %llu read hits, %llu read misses (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(run.readHits),
              static_cast<unsigned long long>(run.readMisses),
              100.0 * static_cast<double>(run.readHits) /
                  static_cast<double>(run.readHits + run.readMisses));
  std::printf("  latency histogram (cycles -> responses):\n");
  for (const auto& [lat, count] : histogram)
    std::printf("    %2llu -> %llu\n", static_cast<unsigned long long>(lat),
                static_cast<unsigned long long>(count));
  // Timing-tolerant vs cycle-exact comparison.
  cosim::InOrderScoreboard inOrder;
  cosim::CycleExactScoreboard cycleExact;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    inOrder.expect(bv::BitVector::fromUint(8, golden[i]), i);
    cycleExact.expect(i, bv::BitVector::fromUint(8, golden[i]));  // SLM: 1/cycle
  }
  std::uint64_t rtlTime = 0;
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    rtlTime += 1 + run.latencies[i];
    inOrder.observe(bv::BitVector::fromUint(8, run.responses[i]), rtlTime);
    cycleExact.observe(rtlTime, bv::BitVector::fromUint(8, run.responses[i]));
  }
  const auto io = inOrder.finish();
  const auto ce = cycleExact.finish();
  std::printf("  in-order scoreboard : %llu matched, %llu mismatched, max "
              "skew %lld cycles -> %s\n",
              static_cast<unsigned long long>(io.matched),
              static_cast<unsigned long long>(io.mismatched),
              static_cast<long long>(io.maxSkew),
              io.clean() ? "CLEAN (values agree, timing absorbed)" : "FAIL");
  std::printf("  cycle-exact scoreboard: %llu matched of %zu -> %s\n",
              static_cast<unsigned long long>(ce.matched), golden.size(),
              ce.clean() ? "clean" : "FAILS (as §3.2 predicts: the SLM is "
                                     "not cycle accurate)");
  report.beginRow("memsys_scoreboards")
      .field("readHits", run.readHits)
      .field("readMisses", run.readMisses)
      .field("inOrderClean", io.clean())
      .field("inOrderMaxSkew", io.maxSkew)
      .field("cycleExactClean", ce.clean());
  return report.write() ? 0 : 1;
}
