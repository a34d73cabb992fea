// PlanReport::json — the machine-readable plan report CI systems track
// SLM/RTL consistency with (no external dependencies: the schema is flat and
// the values are controlled).
#include "core/plan.h"

#include <sstream>

#include "drc/diagnostics.h"

namespace dfv::core {

using drc::jsonEscape;

std::string PlanReport::json(const std::string& planName) const {
  std::ostringstream os;
  os << "{\"plan\":\"" << jsonEscape(planName) << "\",";
  os << "\"summary\":{\"verified\":" << verified
     << ",\"skipped\":" << skipped << ",\"failed\":" << failed
     << ",\"inconclusive\":" << inconclusive
     << ",\"blocked\":" << blocked
     << ",\"faulted\":" << faulted
     << ",\"degraded\":" << degraded;
  // Emitted only when nonzero so pre-journal reports stay byte-identical.
  if (resumed > 0) os << ",\"resumed\":" << resumed;
  os << ",\"workers\":" << workers
     << ",\"total_seconds\":" << totalSeconds
     << ",\"all_passed\":" << (allPassed() ? "true" : "false") << "},";
  os << "\"blocks\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockResult& b = blocks[i];
    if (i > 0) os << ',';
    const char* status = b.skippedUnchanged ? "skipped"
                         : b.blockedByDrc   ? "blocked"
                         : b.faulted        ? "faulted"
                         : b.inconclusive   ? "inconclusive"
                         : b.passed         ? "pass"
                                            : "fail";
    os << "{\"name\":\"" << jsonEscape(b.block) << "\",\"method\":\""
       << (b.method == Method::kSec ? "sec" : "cosim") << "\",\"status\":\""
       << status << "\",\"seconds\":" << b.seconds
       << ",\"attempts\":" << b.attempts
       << ",\"degraded\":" << (b.degraded ? "true" : "false")
       << ",\"faulted\":" << (b.faulted ? "true" : "false")
       << ",\"fault_injections\":" << b.faultInjections;
    if (b.resumed) os << ",\"resumed\":true";
    os << ",\"slice_states_severed\":" << b.sliceStatesSevered
       << ",\"slice_seq_constants\":" << b.sliceSeqConstants
       << ",\"inv_certified\":" << b.invCertified
       << ",\"detail\":\"" << jsonEscape(b.detail) << "\"";
    if (b.portfolioWinner >= 0) {
      os << ",\"portfolio_winner\":" << b.portfolioWinner
         << ",\"portfolio_winner_name\":\""
         << jsonEscape(b.portfolioWinnerName) << "\"";
    }
    if (!b.attemptLog.empty()) {
      os << ",\"attempt_log\":[";
      for (std::size_t a = 0; a < b.attemptLog.size(); ++a) {
        const AttemptRecord& rec = b.attemptLog[a];
        if (a > 0) os << ',';
        os << "{\"rung\":" << rec.rung
           << ",\"max_conflicts\":" << rec.maxConflicts
           << ",\"max_propagations\":" << rec.maxPropagations
           << ",\"outcome\":\"" << jsonEscape(rec.outcome)
           << "\",\"faulted\":" << (rec.faulted ? "true" : "false")
           << ",\"seconds\":" << rec.seconds;
        if (rec.member >= 0) {
          os << ",\"member\":" << rec.member << ",\"member_name\":\""
             << jsonEscape(rec.memberName)
             << "\",\"winner\":" << (rec.winner ? "true" : "false")
             << ",\"cancelled\":" << (rec.cancelled ? "true" : "false");
        }
        os << ",\"sat_conflicts\":" << rec.satConflicts
           << ",\"sat_decisions\":" << rec.satDecisions
           << ",\"sat_learnts\":" << rec.satLearnts
           << ",\"sat_subsumed\":" << rec.satSubsumed
           << ",\"sat_vivified\":" << rec.satVivified
           << ",\"sat_eliminated_vars\":" << rec.satEliminatedVars
           << ",\"rewrite_saved_nodes\":" << rec.rewriteSavedNodes
           << ",\"inv_candidates\":" << rec.invCandidates
           << ",\"inv_certified\":" << rec.invCertified
           << ",\"aig_nodes\":" << rec.aigNodes << "}";
      }
      os << "]";
    }
    if (b.drc.has_value()) os << ",\"drc\":" << b.drc->toJson();
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dfv::core
