// The design-for-verification methodology core: verification plans over
// consistently partitioned SLM/RTL block pairs.
//
// §4.1–§4.2 of the paper: keep the SLM and RTL partitioned into
// corresponding blocks with clear ownership, start keeping them consistent
// *early*, and prefer *incremental* SEC runs — "incremental runs of
// sequential equivalence checking between SLM and RTL are much more
// effective in terms of run time and can help localize the source of any
// difference between the models quickly".
//
// This header holds the result types of a plan run; the runner is
// core::ResilientRunner (core/resilient.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "drc/diagnostics.h"

namespace dfv::core {

/// How a block pair is verified.
enum class Method { kSec, kCosim };

/// How pre-verification design-rule checking gates a plan run.
enum class DrcPolicy {
  kOff,    ///< DRC runners are not invoked
  kWarn,   ///< DRC runs, diagnostics are attached, blocks always run
  kBlock,  ///< blocks whose DRC reports errors fail without running
  kStrict, ///< like kBlock, but warnings block too (semantic-rule gate)
};

/// One verification attempt on a block — the resilient runner records one
/// per retry-ladder rung so a report shows *how* a verdict was reached.
struct AttemptRecord {
  unsigned rung = 0;                  ///< 0 = base options, 1.. = escalations
  /// Caps in force this attempt: the larger finite one of the BMC/induction
  /// phase budgets (0 = both phases unlimited).
  std::int64_t maxConflicts = 0;
  std::int64_t maxPropagations = 0;
  std::string outcome;                ///< verdict name / "faulted: ..." / ...
  bool faulted = false;
  double seconds = 0.0;
  /// Deterministic counters of THIS attempt (sec::deterministicCounters;
  /// each attempt runs a fresh engine, so they are disjoint across rungs,
  /// never cumulative).  A serial and an executor run of the same plan
  /// report them bit-for-bit equal.  Empty for cosim and faulted attempts.
  std::map<std::string, std::uint64_t> counters;
};

/// Result of verifying one block.
struct BlockResult {
  std::string block;
  Method method = Method::kSec;
  bool passed = false;
  bool skippedUnchanged = false;  ///< incremental run skipped it
  bool blockedByDrc = false;      ///< the DRC gate stopped it before attempt 0
  bool inconclusive = false;      ///< SEC budget expired: no verdict either way
  bool faulted = false;    ///< a runner threw; isolated into this result
  bool degraded = false;   ///< SEC never concluded; fell back to cosim
  unsigned attempts = 1;   ///< verification attempts consumed (retry ladder)
  std::uint64_t faultInjections = 0;  ///< injector firings during this block
  /// Counters of the last SEC attempt that returned a result; empty for
  /// cosim blocks.
  std::map<std::string, std::uint64_t> counters;
  double seconds = 0.0;
  std::string detail;  ///< verdict name, mismatch summary, cex summary...
  std::vector<AttemptRecord> attemptLog;  ///< per-attempt telemetry
  /// This result was replayed from a journal record (core/journal.h), not
  /// computed this run.  Provenance only: every other field is the recorded
  /// run's, bit-for-bit.
  bool resumed = false;
  /// Present when the block has a DRC runner and the policy is not kOff.
  std::optional<drc::DrcReport> drc;
};

/// THE cache/resume admission predicate: may this result be trusted without
/// re-running the block?  Only a clean, full-strength pass qualifies — a
/// degraded pass is weaker evidence, a faulted run is no evidence, and an
/// inconclusive/blocked/skipped row carries no verdict at all.  Both the
/// runner's incremental-skip cache and journal resume (core/journal.h) call
/// exactly this function, so the two policies cannot drift apart
/// (tests/journal_test.cpp pins the equivalence).
bool isResumableVerdict(const BlockResult& r);

/// THE BlockResult JSON codec: PlanReport::json writes one object per block
/// with it and the journal embeds one per record.  The object carries every
/// field plus the derived "status" and, when present, the "drc" report.
void encodeBlockResult(common::JsonWriter& w, const BlockResult& b);
/// Strict inverse: a missing, unknown or mistyped field, or an integer too
/// wide for its field, throws CheckError.  "status" and "drc" are not decoded (DRC
/// is re-evaluated live, never replayed).
BlockResult decodeBlockResult(const common::JsonValue& v);

/// Report for a whole plan run.
struct PlanReport {
  std::vector<BlockResult> blocks;
  /// Wall time of the whole run (not the sum of per-block seconds, which
  /// overstates it under an executor and re-counts resumed blocks' runs).
  double totalSeconds = 0.0;
  /// Threads that ran blocks: 1 for a serial run, else the executor's
  /// claim-loop width (the calling thread plus the threads it spawned).
  /// Blocks always appear in registration order regardless of the schedule.
  unsigned workers = 1;
  unsigned verified = 0;
  unsigned skipped = 0;
  unsigned failed = 0;
  unsigned inconclusive = 0;  ///< ran out of budget; neither pass nor fail
  unsigned blocked = 0;  ///< of the failed, how many were stopped by DRC
  unsigned faulted = 0;  ///< of the failed, how many were runner exceptions
  unsigned degraded = 0;  ///< of the verified, how many fell back to cosim
  unsigned resumed = 0;  ///< of the verified, how many replayed from journal

  /// Inconclusive blocks are not failures, but they are not passes either.
  bool allPassed() const { return failed == 0 && inconclusive == 0; }
  /// Names of failing blocks — §4.1's "localize the source of difference".
  /// Inconclusive blocks are excluded: they carry no known difference.
  std::vector<std::string> failingBlocks() const;
  std::string summary() const;
  /// JSON: {"plan": ..., "summary": {...}, "blocks": [{...}, ...]}.
  std::string json(const std::string& planName) const;
  /// Counts one block's result into the summary counters.
  void tally(const BlockResult& r);
};

}  // namespace dfv::core
