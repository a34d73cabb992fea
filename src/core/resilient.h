// The plan runner: DRC gating, retry ladders and graceful degradation.
//
// A plan holds one entry per SLM/RTL block pair (core/plan.h has the result
// types).  Running each block's verifier exactly once and recording what
// happened is not enough in a long-running CI flow: a SEC run that exhausts
// its budget is *inconclusive*, not wrong, and the right reaction is usually
// "try again with a bigger budget", then — if the proof never closes —
// "fall back to co-simulation and say so".  §4.1 of the paper makes
// plan-level robustness the point of the methodology: one stubborn block
// must not stall the consistency signal for every other block.
//
// ResilientRunner implements that reaction as policy, not ad-hoc code:
//   * a DRC gate — a block's attached design-rule checker runs once before
//     attempt 0; under DrcPolicy::kBlock/kStrict a dirty block fails with
//     blockedByDrc and attempts = 0, never climbing the ladder or degrading;
//   * exception isolation — a runner that throws becomes a structured
//     faulted BlockResult; the plan keeps going;
//   * a retry ladder — kInconclusive SEC verdicts are retried with
//     geometrically escalated sat::Budget caps, optionally toggling
//     fraig/invariants per rung, every attempt logged in
//     BlockResult::attemptLog;
//   * graceful degradation — when the ladder tops out, an attached cosim
//     fallback runs seeded random stimulus through both models and the
//     block is reported with degraded=true: weaker evidence, clearly
//     labeled, never cached as clean.
// A plain one-shot plan is RetryPolicy{.maxAttempts = 1} with no fallback.
//
// All resilience is deterministic: budgets are conflict/propagation caps,
// fallback stimulus is seeded, and fault injection (src/fault) is a pure
// function of (seed, site, hit) — so a CI failure reproduces locally.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/plan.h"
#include "sec/engine.h"
#include "sec/transaction.h"

namespace dfv::core {

class Journal;
struct JournalLoaded;

/// One escalation step of the retry ladder.  `budgetScale` multiplies the
/// *previous* attempt's conflict/propagation/seconds caps (unlimited caps
/// stay unlimited); `fraig`/`invariants`, when set, override the
/// corresponding SecOptions toggle from this rung on.  An `invariants`
/// rung is the natural rescue between budget escalation and cosim
/// degradation: when the inductive step keeps failing, certified
/// strengthening often closes it outright instead of buying more solver
/// time.
struct RetryRung {
  double budgetScale = 4.0;
  std::optional<bool> fraig;
  std::optional<bool> invariants;
};

/// How inconclusive SEC blocks are retried and degraded.
struct RetryPolicy {
  /// Total attempts per block, including the first (base-options) one.
  unsigned maxAttempts = 3;
  /// Escalation factor used when `rungs` is empty: attempt i runs with the
  /// base caps scaled by budgetScale^i.
  double budgetScale = 4.0;
  /// Explicit ladder; entry i configures attempt i+1.  When shorter than
  /// maxAttempts-1, the last rung repeats.  Overrides `budgetScale`.
  std::vector<RetryRung> rungs{};
  /// Also climb the ladder when BMC finished but the inductive step was cut
  /// off: the bounded verdict is already a sound pass, so this retry only
  /// chases the upgrade to proven-equivalent (and the block passes either
  /// way).  Never triggers degradation.
  bool retryInductionCutoff = true;
  /// Seed handed to the cosim fallback of degraded blocks.
  std::uint64_t cosimSeed = 0x5eedfa11;
};

/// The plan runner: a named collection of SLM/RTL block pairs with
/// verification callbacks, run under a DRC gate, retry and degradation
/// policy, optionally in parallel and journaled.
class ResilientRunner {
 public:
  /// What a cosim runner reports: pass/fail plus a detail string.
  struct CosimOutcome {
    bool passed;
    std::string detail;
  };
  /// SEC runners take the options to use *this attempt* — the ladder
  /// rescales budgets and toggles between calls.
  using SecRunner = std::function<sec::SecResult(const sec::SecOptions&)>;
  /// Cosim runners (and fallbacks) take the stimulus seed to use.
  using CosimRunner = std::function<CosimOutcome(std::uint64_t seed)>;

  explicit ResilientRunner(std::string name, RetryPolicy policy = {})
      : name_(std::move(name)), policy_(std::move(policy)) {}

  /// Registers a SEC block.  `baseOptions` is attempt 0's configuration;
  /// later attempts derive from it per the RetryPolicy.
  void addSecBlock(const std::string& block, std::uint64_t digest,
                   sec::SecOptions baseOptions, SecRunner runner);

  /// Registers a cosim-verified block (no ladder: one attempt, isolated).
  void addCosimBlock(const std::string& block, std::uint64_t digest,
                     CosimRunner runner);

  /// Attaches the degradation fallback to a SEC block: runs only when every
  /// ladder attempt came back inconclusive.  Unknown block throws.
  void setCosimFallback(const std::string& block, CosimRunner fallback);

  /// Updates a block's digest (models edited).  Unknown block throws.
  void touch(const std::string& block, std::uint64_t newDigest);

  /// Attaches a DRC runner to a block: invoked once per run of the block,
  /// before attempt 0, whenever the DRC policy is not kOff.  Unknown block
  /// throws.
  void setBlockDrc(const std::string& block,
                   std::function<drc::DrcReport()> runner);

  /// Sets how DRC findings gate runs (default kWarn: run DRC where a runner
  /// is attached, report, never block).
  void setDrcPolicy(DrcPolicy policy) { drcPolicy_ = policy; }

  /// Runs independent blocks concurrently on `exec` (borrowed; must outlive
  /// every run; nullptr restores serial execution).  Each block installs a
  /// fresh clone of the calling thread's fault injector, so a block's
  /// injection schedule is the same whatever thread runs it — note this
  /// intentionally differs from a serial run, where all blocks share one
  /// hit stream.  Reports keep registration order and record how many
  /// threads ran blocks; block runners must not share mutable state with
  /// each other (ir::Context interning is already thread-safe).
  void setExecutor(ParallelExecutor* exec) { exec_ = exec; }

  /// Attaches a write-ahead journal (borrowed; must outlive every run):
  /// every completed block appends one record — from worker threads under
  /// an executor (the journal serializes internally).  Journal I/O
  /// failures never affect verdicts; the run continues unjournaled.
  void setJournal(Journal* journal) { journal_ = journal; }

  /// Replays a loaded journal: a record whose digest and fingerprint match
  /// a registered block and whose verdict passes isResumableVerdict is
  /// emitted (resumed=true) by the next run instead of re-running the block.
  /// The first unknown-block or fingerprint mismatch cold-starts everything
  /// from that record on; a non-resumable verdict, or one that ran DRC (DRC
  /// is re-evaluated live), re-runs its own block.  Returns the admitted
  /// count.
  unsigned resumePlan(const JournalLoaded& loaded);

  /// Verifies every block unconditionally.  Never throws for runner
  /// failures — they surface as faulted BlockResults.
  PlanReport runAll();

  /// Skips blocks whose digest is unchanged since their last clean,
  /// full-strength pass.  Faulted, degraded, inconclusive and DRC-blocked
  /// blocks are never treated as clean, so they always rerun.
  PlanReport runIncremental();

  const std::string& name() const { return name_; }
  const RetryPolicy& policy() const { return policy_; }
  std::size_t blockCount() const { return blocks_.size(); }

 private:
  struct Entry {
    std::string block;
    Method method = Method::kSec;
    std::uint64_t digest = 0;
    sec::SecOptions baseOptions;
    SecRunner secRunner;
    CosimRunner cosimRunner;   ///< primary for kCosim, fallback for kSec
    std::function<drc::DrcReport()> drcRunner;
    std::optional<std::uint64_t> lastCleanDigest;
    std::string lastDetail;
    // Journal-admitted result, consumed (once) by the next run.
    std::optional<BlockResult> resumedResult;
  };

  Entry& addEntry(const std::string& block, std::uint64_t digest,
                  Method method);
  BlockResult runEntry(Entry& e);
  bool drcBlocks(const Entry& e, BlockResult& r) const;
  PlanReport run(bool incremental);
  Entry* lookup(const std::string& block);  ///< nullptr when unknown
  Entry& find(const std::string& block);    ///< throws when unknown
  std::uint64_t entryFingerprint(const Entry& e) const;
  void journalAppend(const Entry& e, const BlockResult& r);

  std::string name_;
  RetryPolicy policy_;
  std::vector<Entry> blocks_;
  DrcPolicy drcPolicy_ = DrcPolicy::kWarn;
  ParallelExecutor* exec_ = nullptr;  ///< borrowed; nullptr = serial
  Journal* journal_ = nullptr;  ///< borrowed; nullptr = unjournaled
};

/// Builds a degradation fallback from the SEC problem itself: drives
/// `transactions` seeded random transactions (rejection-sampled against the
/// problem's input constraints) through both sides' interpreters via the
/// problem's input bindings, and compares every OutputCheck sample.  The
/// returned callable captures `problem` by reference — it must outlive the
/// runner.  This is the paper's co-simulation methodology (§3) reused as a
/// safety net: far weaker than SEC, but it still catches gross divergence
/// and it always terminates.
ResilientRunner::CosimRunner makeRandomCosimFallback(
    const sec::SecProblem& problem, unsigned transactions);

}  // namespace dfv::core
