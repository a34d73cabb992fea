// dfv::drc — cross-layer design-rule checking.
//
// The paper's central claim is that verifiability is a design-time property:
// models and RTL written to the §4 guidelines verify in seconds, everything
// else does not.  This subsystem makes that property checkable *before* any
// solver runs: one runDrc() call lints every artifact of a verification
// setup — conditioned SLM sources (§4.3 guidelines), transition systems,
// RTL netlists, and the SEC transaction shape (§3.1/§3.2 mapping hygiene
// plus structural-merge predictions) — into one machine-readable report.
// core::ResilientRunner uses it as a pre-verification gate (setBlockDrc +
// setDrcPolicy): DRC runs once per block before attempt 0, and a blocked
// block fails without running, retrying or degrading.
#pragma once

#include <string>
#include <vector>

#include "drc/absint_rules.h"
#include "drc/diagnostics.h"
#include "drc/inv_rules.h"
#include "drc/ir_rules.h"
#include "drc/rtl_rules.h"
#include "drc/sec_rules.h"
#include "drc/slice_rules.h"
#include "drc/slm_rules.h"

namespace dfv::drc {

/// Everything one DRC run should look at.  All pointers are borrowed and
/// must outlive the runDrc() call; names label diagnostic locations.
struct DrcInputs {
  std::vector<std::pair<std::string, const slmc::Function*>> slmFunctions;
  std::vector<std::pair<std::string, const ir::TransitionSystem*>> systems;
  std::vector<std::pair<std::string, const rtl::Module*>> modules;
  std::vector<std::pair<std::string, const sec::SecProblem*>> secProblems;

  DrcInputs& addSlm(std::string name, const slmc::Function& f) {
    slmFunctions.emplace_back(std::move(name), &f);
    return *this;
  }
  DrcInputs& addSystem(std::string name, const ir::TransitionSystem& ts) {
    systems.emplace_back(std::move(name), &ts);
    return *this;
  }
  DrcInputs& addModule(std::string name, const rtl::Module& m) {
    modules.emplace_back(std::move(name), &m);
    return *this;
  }
  DrcInputs& addSecProblem(std::string name, const sec::SecProblem& p) {
    secProblems.emplace_back(std::move(name), &p);
    return *this;
  }
};

/// Runs every applicable rule family over `inputs` and returns the combined
/// report.  Layer order is bottom-up: SLM conditioning, transition systems,
/// RTL netlists, SEC shape.
DrcReport runDrc(const DrcInputs& inputs);

/// Convenience: checks a SEC problem plus both of its transition systems.
DrcReport runDrc(const sec::SecProblem& problem, const std::string& name);

}  // namespace dfv::drc
