#include "core/plan.h"

#include <sstream>

namespace dfv::core {

bool isResumableVerdict(const BlockResult& r) {
  // The extra conjuncts beyond "passed and clean" are belt-and-braces for
  // journal records, which are untrusted bytes: a crafted record could set
  // passed alongside a contradictory flag, and it must still be rejected.
  return r.passed && !r.degraded && !r.faulted && !r.inconclusive &&
         !r.blockedByDrc && !r.skippedUnchanged;
}

std::vector<std::string> PlanReport::failingBlocks() const {
  std::vector<std::string> out;
  for (const auto& b : blocks)
    if (!b.passed && !b.inconclusive && !b.skippedUnchanged)
      out.push_back(b.block);
  return out;
}

std::string PlanReport::summary() const {
  std::ostringstream os;
  os << verified << " verified, " << skipped << " skipped, " << failed
     << " failed";
  if (inconclusive > 0) os << ", " << inconclusive << " inconclusive";
  os << " in " << totalSeconds << "s";
  if (blocked > 0) os << " (" << blocked << " blocked by DRC)";
  if (faulted > 0) os << " (" << faulted << " faulted)";
  if (degraded > 0) os << " (" << degraded << " degraded to cosim)";
  return os.str();
}

void PlanReport::tally(const BlockResult& r) {
  if (r.skippedUnchanged)
    ++skipped;
  else if (r.inconclusive)
    ++inconclusive;
  else
    ++(r.passed ? verified : failed);
  if (r.blockedByDrc) ++blocked;
  if (r.faulted) ++faulted;
  if (r.degraded) ++degraded;
  if (r.resumed) ++resumed;
}

}  // namespace dfv::core
