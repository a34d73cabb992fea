// The benchmark's workloads behind one interface.
//
// A run calls setup() several times (timed; each call rebuilds every design,
// problem, mutant and stimulus from the seed), then runPass() repeatedly
// until the run's time is used (timed), and check() after every pass
// (untimed) to hold each verdict and output against an answer that does not
// come from the layer that produced it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace dfvbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
inline double secondsSince(Clock::time_point from,
                           Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}

/// One verification block's outcome in one pass.
struct BlockOutcome {
  std::string name;
  double seconds = 0.0;    ///< time to verdict, measured around the call
  double queueWait = 0.0;  ///< plan start to block start (plan workloads)
  std::string verdict;
  bool decisive = false;  ///< proven / not-equivalent / clean / mismatch
  bool faulted = false;
  std::uint64_t items = 0;  ///< SEC transactions checked or cosim items
  /// Set by Workload::check: empty when the outcome agrees with the
  /// independent answer, else why it does not.
  std::string disagreement;
};

struct PassResult {
  double wall = 0.0;
  std::vector<BlockOutcome> blocks;
  /// Per-layer values the workload computes itself (plan timing), merged
  /// with the trace's sums for traced passes.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads that run blocks concurrently (1 = serial).
  virtual unsigned threads() const { return 1; }
  /// Rebuilds every input of the workload.
  virtual void setup(Trace* trace) = 0;
  virtual PassResult runPass(Trace* trace) = 0;
  /// Fills each block's `disagreement`; never throws for a wrong answer.
  virtual void check(PassResult& pass) = 0;
  /// (block, description) pairs for the report, e.g. mutant edits.
  virtual std::vector<std::pair<std::string, std::string>> descriptions()
      const {
    return {};
  }
};

/// Every design pair that should be equivalent, in one serial
/// ResilientRunner plan with a journal in `workDir` and DRC before each
/// block.  The design suite is fixed, so no seed applies.
std::unique_ptr<Workload> makeProveSuite(std::string workDir);
/// Every rtl::mutate mutant of the FIR and conv-window RTL plus the named
/// bug pairs, as SEC blocks of one plan on a ParallelExecutor; the seed
/// drives the random co-simulation that checks proven mutants.
std::unique_ptr<Workload> makeBugHunt(std::uint64_t seed, unsigned threads);
/// RTL streams, SLM kernel and random-transaction fallbacks against the
/// SLM goldens.
std::unique_ptr<Workload> makeCosimStream(std::uint64_t seed);

}  // namespace dfvbench
