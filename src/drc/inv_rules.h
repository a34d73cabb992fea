// Invariant-strengthening advisories over transition systems.
//
// These are the DRC face of dfv::inv: the same mining + Houdini pass SEC
// runs under SecOptions::invariants, surfaced as diagnostics before any
// equivalence check.  kInvariantStrengthened (kInfo) names each certified
// predicate — the facts transaction induction will get for free, and a
// designer's checklist of what the analyzers can already prove about a
// register.
// kInvariantCandidateStorm (kWarning) fires when mining produces more
// candidates than the certifier's cap admits: the dropped remainder is
// silent lost strengthening, and a storm usually means wide state with
// accidental structure (packed fields, redundant counters) that should be
// narrowed or split per the paper's §4 conditioning guidelines.
#pragma once

#include <string>

#include "drc/diagnostics.h"
#include "ir/transition_system.h"

namespace dfv::drc {

struct InvRuleOptions {
  /// Candidate count above which kInvariantCandidateStorm fires.  Matches
  /// inv::Options::maxCandidates: past it, certification truncates.
  unsigned stormThreshold = 64;
};

/// Runs kInvariantStrengthened and kInvariantCandidateStorm over `ts`.
/// Certification solves run under a fixed internal propagation cap so DRC
/// stays fast and machine-independent; a capped run simply reports fewer
/// certified facts (never a wrong one — every report carries a SAT
/// certificate).
void checkInvariantRules(const ir::TransitionSystem& ts,
                         const std::string& where, DrcReport& report,
                         const InvRuleOptions& opts = {});

}  // namespace dfv::drc
