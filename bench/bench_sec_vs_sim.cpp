// CLM-SECFIND — reproduces §2's claim: "Sequential equivalence checking is
// very effective at quickly finding discrepancies between SLM and RTL
// models ... without having to write testbenches at the block level."
//
// For a set of injected RTL bugs, compares
//   * random co-simulation: stimuli (and wall time) until the scoreboard
//     sees the first mismatch, under a typical-amplitude workload and a
//     full-range workload;
//   * SEC: wall time to a counterexample, with zero testbench authoring.
// Shape to reproduce: SEC finds every bug in milliseconds-to-seconds; a
// simulation testbench's detection time depends entirely on the stimulus
// distribution and can be unbounded (the narrow-accumulator bug is
// invisible to the typical workload).

#include <chrono>
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "cosim/wrapped_rtl.h"
#include "designs/fir.h"
#include "sec/engine.h"
#include "workload/workload.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Streams random stimulus until the first mismatch against the golden
/// model; returns the number of samples consumed (nullopt = not found).
struct SimDetect {
  std::optional<std::size_t> stimuli;
  double seconds;
};
SimDetect simulateUntilMismatch(designs::FirBug bug, bool fullRange,
                                std::size_t budget) {
  const auto start = Clock::now();
  workload::Rng rng(fullRange ? 0xFFu : 0x11u);
  cosim::WrappedRtl dut(designs::makeFirRtl(bug), cosim::StreamPorts{});
  const std::size_t kChunk = 512;
  std::size_t consumed = 0;
  while (consumed < budget) {
    std::vector<bv::BitVector> stim;
    std::vector<std::int8_t> sx;
    for (std::size_t i = 0; i < kChunk; ++i) {
      std::int64_t v;
      if (fullRange) {
        v = static_cast<std::int8_t>(rng.next());
      } else {
        // Typical workload: quiet samples (5-bit amplitude).
        v = static_cast<std::int8_t>(rng.next()) / 8;
      }
      stim.push_back(bv::BitVector::fromInt(8, v));
      sx.push_back(static_cast<std::int8_t>(v));
    }
    const auto golden = designs::firGoldenInt(sx);
    const auto outs = dut.run(stim);
    for (std::size_t i = 0; i < outs.size() && i < golden.size(); ++i) {
      if (outs[i].value !=
          bv::BitVector::fromInt(designs::kFirAccWidth, golden[i])) {
        return SimDetect{consumed + i + designs::kFirTaps, secsSince(start)};
      }
    }
    consumed += kChunk;
  }
  return SimDetect{std::nullopt, secsSince(start)};
}

struct SecDetect {
  sec::Verdict verdict;
  double seconds;
  std::string witness;
};
SecDetect secDetect(designs::FirBug bug) {
  const auto start = Clock::now();
  ir::Context ctx;
  auto setup = designs::makeFirSecProblem(ctx, bug);
  auto r = sec::checkEquivalence(*setup.problem, {.boundTransactions = 8,
                                                  .tryInduction = true});
  return SecDetect{r.verdict, secsSince(start),
                   r.cex ? r.cex->summary() : ""};
}

const char* bugName(designs::FirBug bug) {
  switch (bug) {
    case designs::FirBug::kNone: return "none (control)";
    case designs::FirBug::kNarrowAccumulator: return "narrow accumulator";
    case designs::FirBug::kWrongCoefficient: return "wrong coefficient";
    case designs::FirBug::kDroppedTap: return "dropped tap";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport report(argc, argv, "sec_vs_sim");
  std::printf("=== CLM-SECFIND: time-to-find for injected RTL bugs ===\n\n");
  if (smoke)
    std::printf("(--smoke: tiny simulation budget, no timing claims)\n\n");
  std::printf("%-20s | %-26s | %-26s | %s\n", "bug",
              "cosim, typical workload", "cosim, full-range workload",
              "SEC (no testbench)");
  const std::size_t kBudget = smoke ? 2'000 : 100'000;
  for (auto bug : {designs::FirBug::kNone,
                   designs::FirBug::kWrongCoefficient,
                   designs::FirBug::kDroppedTap,
                   designs::FirBug::kNarrowAccumulator}) {
    const auto quiet = simulateUntilMismatch(bug, false, kBudget);
    const auto loud = simulateUntilMismatch(bug, true, kBudget);
    const auto formal = secDetect(bug);
    char quietBuf[40], loudBuf[40], secBuf[64];
    if (quiet.stimuli)
      std::snprintf(quietBuf, sizeof quietBuf, "%zu stimuli, %.2fs",
                    *quiet.stimuli, quiet.seconds);
    else
      std::snprintf(quietBuf, sizeof quietBuf, "NOT FOUND in %zuk", kBudget / 1000);
    if (loud.stimuli)
      std::snprintf(loudBuf, sizeof loudBuf, "%zu stimuli, %.2fs",
                    *loud.stimuli, loud.seconds);
    else
      std::snprintf(loudBuf, sizeof loudBuf, "NOT FOUND in %zuk", kBudget / 1000);
    std::snprintf(secBuf, sizeof secBuf, "%s, %.2fs",
                  sec::verdictName(formal.verdict), formal.seconds);
    std::printf("%-20s | %-26s | %-26s | %s\n", bugName(bug), quietBuf,
                loudBuf, secBuf);
    report.beginRow("time_to_find")
        .field("bug", bugName(bug))
        .field("quietFound", quiet.stimuli.has_value())
        .field("quietStimuli", quiet.stimuli.value_or(0))
        .field("quietSeconds", quiet.seconds)
        .field("loudFound", loud.stimuli.has_value())
        .field("loudStimuli", loud.stimuli.value_or(0))
        .field("loudSeconds", loud.seconds)
        .field("secVerdict", sec::verdictName(formal.verdict))
        .field("secSeconds", formal.seconds);
  }
  std::printf("\n(narrow accumulator: a correct-by-typical-workload design "
              "that only formal input coverage exposes)\n");
  return report.write() ? 0 : 1;
}
