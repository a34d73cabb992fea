#include "drc/inv_rules.h"

#include <sstream>

#include "inv/inv.h"
#include "ir/print.h"

namespace dfv::drc {

void checkInvariantRules(const ir::TransitionSystem& ts,
                         const std::string& where, DrcReport& report,
                         const InvRuleOptions& opts) {
  inv::Options io;
  io.maxCandidates = opts.stormThreshold;
  // Fixed propagation cap: DRC verdicts must be machine-independent facts
  // (the CLAUDE.md budget rule), and an advisory pass has no business
  // burning unbounded solver time.  Exhaustion just means fewer infos.
  sat::Budget budget;
  budget.maxPropagations = 200000;
  const inv::Result r = inv::mineAndCertify(ts, io, budget);

  if (r.stats.candidates > opts.stormThreshold) {
    std::ostringstream os;
    os << "invariant mining produced " << r.stats.candidates
       << " candidates (cap " << opts.stormThreshold
       << "): the excess is silently dropped before certification — "
          "narrow or split wide state per the conditioning guidelines";
    report.add(Rule::kInvariantCandidateStorm, Severity::kWarning, Layer::kIr,
               where, os.str());
  }

  for (ir::NodeRef p : r.certified) {
    std::ostringstream os;
    os << "holds at reset and is inductive (Houdini-certified, "
       << r.stats.rounds << " round" << (r.stats.rounds == 1 ? "" : "s")
       << "): transaction induction may assume it";
    report.add(Rule::kInvariantStrengthened, Severity::kInfo, Layer::kIr,
               where, os.str(), ir::printExpr(p));
  }
}

}  // namespace dfv::drc
