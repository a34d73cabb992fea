// CLM-SPEED — reproduces §2's claim: "the SLM simulates several orders of
// magnitude faster (typically 10x to 1000x) than the RTL model."
//
// For the FIR and conv3x3 designs, measures throughput at the paper's three
// abstraction levels:
//   untimed SLM       — a pure C++ function call (no kernel, no events);
//   cycle-approx SLM  — the same function driven one sample per clock edge
//                       on the coroutine kernel (events + delta cycles);
//   RTL simulation    — the levelized cycle-accurate netlist simulator.
// Reports items/second per level and the SLM/RTL speedup factors.  The
// shape to reproduce: untimed lands in (or near) the paper's 10x–1000x
// band; adding timing detail erodes the advantage.  A BitVector microbench
// (ops/second for +, * and concat+extract at 8, 64 and 128 bits) shows the
// cost of the value type every RTL net and IR slot carries.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bitvec/hdl_int.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "slm/channels.h"
#include "slm/kernel.h"
#include "workload/workload.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  const char* level;
  std::size_t items;
  double seconds;
};

benchutil::JsonReport* gReport = nullptr;

void printRows(const char* design, const Row* rows, std::size_t n) {
  std::printf("%s:\n", design);
  std::printf("  %-22s %12s %10s %12s %9s\n", "abstraction level", "items",
              "seconds", "items/sec", "vs RTL");
  const double rtlRate =
      static_cast<double>(rows[n - 1].items) / rows[n - 1].seconds;
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = static_cast<double>(rows[i].items) / rows[i].seconds;
    std::printf("  %-22s %12zu %10.3f %12.0f %8.1fx\n", rows[i].level,
                rows[i].items, rows[i].seconds, rate, rate / rtlRate);
    gReport->beginRow("throughput")
        .field("design", design)
        .field("level", rows[i].level)
        .field("items", rows[i].items)
        .field("seconds", rows[i].seconds)
        .field("itemsPerSec", rate)
        .field("vsRtl", rate / rtlRate);
  }
  std::printf("\n");
}

// --- FIR at three levels -----------------------------------------------------

std::uint64_t firUntimed(const std::vector<std::int8_t>& samples) {
  const auto out = designs::firGoldenBitAccurate(samples);
  std::uint64_t sink = 0;
  for (const auto& v : out) sink += static_cast<std::uint64_t>(v.bits());
  return sink;
}

std::uint64_t firCycleApprox(const std::vector<std::int8_t>& samples) {
  using Acc = bv::Int<designs::kFirAccWidth>;
  slm::Kernel kernel;
  slm::Clock clk(kernel, "clk", 10);
  std::uint64_t sink = 0;
  auto model = [&]() -> slm::Process {
    std::int8_t delay[designs::kFirTaps] = {0};
    for (std::size_t k = 0; k < samples.size(); ++k) {
      co_await clk.rising();
      for (unsigned i = designs::kFirTaps - 1; i > 0; --i)
        delay[i] = delay[i - 1];
      delay[0] = samples[k];
      if (k + 1 >= designs::kFirTaps) {
        Acc acc = 0;
        for (unsigned i = 0; i < designs::kFirTaps; ++i)
          acc += Acc(static_cast<std::int64_t>(delay[i])) *
                 Acc(designs::kFirCoeffs[i]);
        sink += static_cast<std::uint64_t>(acc.bits());
      }
    }
  };
  kernel.spawn(model(), "fir");
  kernel.run(10 * (samples.size() + 4));
  return sink;
}

std::uint64_t firRtl(const std::vector<bv::BitVector>& stream) {
  cosim::WrappedRtl dut(designs::makeFirRtl(false), cosim::StreamPorts{});
  std::uint64_t sink = 0;
  for (const auto& item : dut.run(stream)) sink += item.value.toUint64();
  return sink;
}

// --- conv3x3 at three levels --------------------------------------------------

std::uint64_t convUntimed(const workload::Image& img,
                          const designs::ConvKernel& kernel) {
  std::uint64_t sink = 0;
  for (auto px : designs::convGolden(img, kernel)) sink += px;
  return sink;
}

std::uint64_t convCycleApprox(const workload::Image& img,
                              const designs::ConvKernel& kernel) {
  slm::Kernel kern;
  slm::Clock clk(kern, "clk", 10);
  std::uint64_t sink = 0;
  auto model = [&]() -> slm::Process {
    // Pixel-per-cycle model with a software line buffer (cycle-approximate
    // interface timing, C-speed computation).
    std::vector<std::uint8_t> history(2 * img.width + 3, 0);
    std::size_t count = 0;
    unsigned x = 0, y = 0;
    for (auto px : img.pixels) {
      co_await clk.rising();
      for (std::size_t i = history.size() - 1; i > 0; --i)
        history[i] = history[i - 1];
      history[0] = px;
      if (x >= 2 && y >= 2) {
        const unsigned W = img.width;
        const std::array<std::uint8_t, 9> window = {
            history[2 * W + 2], history[2 * W + 1], history[2 * W],
            history[W + 2],     history[W + 1],     history[W],
            history[2],         history[1],         history[0]};
        sink += designs::convWindow(window, kernel);
        ++count;
      }
      if (++x == img.width) {
        x = 0;
        ++y;
      }
    }
    (void)count;
  };
  kern.spawn(model(), "conv");
  kern.run(10 * (img.pixels.size() + 4));
  return sink;
}

std::uint64_t convRtl(const workload::Image& img,
                      const designs::ConvKernel& kernel) {
  std::vector<bv::BitVector> stream;
  stream.reserve(img.pixels.size());
  for (auto px : img.pixels) stream.push_back(bv::BitVector::fromUint(8, px));
  cosim::WrappedRtl dut(designs::makeConvRtl(img.width, kernel),
                        cosim::StreamPorts{});
  std::uint64_t sink = 0;
  for (const auto& item : dut.run(stream)) sink += item.value.toUint64();
  return sink;
}

// --- BitVector microbench --------------------------------------------------

struct BvOp {
  const char* name;
  bv::BitVector (*apply)(const bv::BitVector&, const bv::BitVector&);
};

const BvOp kBvOps[] = {
    {"add",
     [](const bv::BitVector& a, const bv::BitVector& b) { return a + b; }},
    {"mul",
     [](const bv::BitVector& a, const bv::BitVector& b) { return a * b; }},
    {"concat+extract",
     [](const bv::BitVector& a, const bv::BitVector& b) {
       const unsigned w = a.width();
       return bv::BitVector::concat(a, b).extract(w + w / 2 - 1, w / 2);
     }},
};

/// ops/second of `op` over a ring of pre-built random operands.
double bvOpsPerSec(const BvOp& op, unsigned width, std::size_t ops,
                   std::uint64_t& sink) {
  workload::Rng rng(width);
  std::vector<bv::BitVector> xs;
  for (int i = 0; i < 256; ++i) xs.push_back(workload::randomBits(rng, width));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i)
    sink += op.apply(xs[i % 256], xs[(i * 7 + 1) % 256]).toUint64();
  return static_cast<double>(ops) / secsSince(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "sim_speed");
  gReport = &report;
  std::printf("=== CLM-SPEED: SLM vs RTL simulation throughput "
              "(paper: 10x-1000x) ===\n\n");
  if (smoke)
    std::printf("(--smoke: tiny streams; the speedup column is "
                "meaningless at this size)\n\n");
  std::uint64_t sinkValue = 0;
  auto& sink = sinkValue;  // written through and returned: not elided

  {  // FIR
    const std::size_t kUntimedN = smoke ? 20'000 : 2'000'000;
    const std::size_t kCycleN = smoke ? 4'000 : 400'000;
    const std::size_t kRtlN = smoke ? 400 : 40'000;
    auto bvStream = workload::makeSampleStream(kRtlN, 1);
    std::vector<std::int8_t> untimedSamples, cycleSamples;
    for (const auto& s : workload::makeSampleStream(kUntimedN, 1))
      untimedSamples.push_back(static_cast<std::int8_t>(s.toInt64()));
    for (const auto& s : workload::makeSampleStream(kCycleN, 1))
      cycleSamples.push_back(static_cast<std::int8_t>(s.toInt64()));

    Row rows[3];
    // One untimed warm-up call first: the timed call then measures the SLM
    // in steady state, not the heap growing to hold its output vector.
    sink += firUntimed(untimedSamples);
    auto t0 = Clock::now();
    sink += firUntimed(untimedSamples);
    rows[0] = {"untimed SLM", kUntimedN, secsSince(t0)};
    t0 = Clock::now();
    sink += firCycleApprox(cycleSamples);
    rows[1] = {"cycle-approx SLM", kCycleN, secsSince(t0)};
    t0 = Clock::now();
    sink += firRtl(bvStream);
    rows[2] = {"RTL simulation", kRtlN, secsSince(t0)};
    printRows("FIR (8-tap, items = samples)", rows, 3);
  }

  {  // conv3x3
    const auto kernel = designs::ConvKernel::sharpen();
    const auto imgBig = workload::makeTestImage(smoke ? 64 : 256,
                                                smoke ? 64 : 256, 7);
    const auto imgMid = workload::makeTestImage(smoke ? 32 : 128,
                                                smoke ? 32 : 128, 7);
    const auto imgSmall = workload::makeTestImage(smoke ? 16 : 64,
                                                  smoke ? 16 : 64, 7);
    const unsigned kUntimedReps = smoke ? 2 : 40;
    const unsigned kCycleReps = smoke ? 1 : 4;

    Row rows[3];
    auto t0 = Clock::now();
    for (unsigned r = 0; r < kUntimedReps; ++r)
      sink += convUntimed(imgBig, kernel);
    rows[0] = {"untimed SLM", kUntimedReps * imgBig.pixels.size(),
               secsSince(t0)};
    t0 = Clock::now();
    for (unsigned r = 0; r < kCycleReps; ++r)
      sink += convCycleApprox(imgMid, kernel);
    rows[1] = {"cycle-approx SLM", kCycleReps * imgMid.pixels.size(),
               secsSince(t0)};
    t0 = Clock::now();
    sink += convRtl(imgSmall, kernel);
    rows[2] = {"RTL simulation", imgSmall.pixels.size(), secsSince(t0)};
    printRows("conv3x3 (items = pixels)", rows, 3);
  }

  {  // BitVector microbench
    const std::size_t kOps = smoke ? 20'000 : 4'000'000;
    const unsigned widths[] = {8, 64, 128};
    std::printf("BitVector (ops/sec):\n  %-16s", "op");
    for (unsigned w : widths)
      std::printf(" %12s", ("w=" + std::to_string(w)).c_str());
    std::printf("\n");
    for (const BvOp& op : kBvOps) {
      std::printf("  %-16s", op.name);
      for (unsigned w : widths) {
        const double rate = bvOpsPerSec(op, w, kOps, sink);
        std::printf(" %12.0f", rate);
        gReport->beginRow("bitvector")
            .field("op", op.name)
            .field("width", w)
            .field("opsPerSec", rate);
      }
      std::printf("\n");
    }
  }
  return !report.write() || sink == 0xdead ? 1 : 0;  // defeat optimizer
}
