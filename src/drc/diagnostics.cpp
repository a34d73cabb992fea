#include "drc/diagnostics.h"

#include <algorithm>
#include <sstream>

namespace dfv::drc {

const char* ruleName(Rule rule) {
  switch (rule) {
    case Rule::kUndrivenNet: return "undriven-net";
    case Rule::kMultiplyDrivenNet: return "multiply-driven-net";
    case Rule::kUnconnectedPort: return "unconnected-port";
    case Rule::kWidthMismatch: return "width-mismatch";
    case Rule::kUnconnectedRegister: return "unconnected-register";
    case Rule::kDeadCell: return "dead-cell";
    case Rule::kUnreachableMuxArm: return "unreachable-mux-arm";
    case Rule::kConstantOutput: return "constant-output";
    case Rule::kCombinationalCycle: return "combinational-cycle";
    case Rule::kUnreadInput: return "unread-input";
    case Rule::kLatentLatch: return "latent-latch";
    case Rule::kMissingNext: return "missing-next";
    case Rule::kConstantTsOutput: return "constant-ts-output";
    case Rule::kVacuousConstraint: return "vacuous-constraint";
    case Rule::kTrivialConstraint: return "trivial-constraint";
    case Rule::kSecUnmappedInput: return "sec-unmapped-input";
    case Rule::kSecUncheckedOutput: return "sec-unchecked-output";
    case Rule::kSecGuardAccumulation: return "sec-guard-accumulation";
    case Rule::kSecMulShapeMismatch: return "sec-mul-shape-mismatch";
    case Rule::kLossyTruncation: return "lossy-truncation";
    case Rule::kPossibleOverflow: return "possible-overflow";
    case Rule::kUninitMemoryRead: return "uninit-memory-read";
    case Rule::kSecOutputRangeMismatch: return "sec-output-range-mismatch";
    case Rule::kSlmDynamicAllocation: return "slm-dynamic-allocation";
    case Rule::kSlmPointerAliasing: return "slm-pointer-aliasing";
    case Rule::kSlmNonStaticLoopBound: return "slm-non-static-loop-bound";
    case Rule::kSlmExternalCall: return "slm-external-call";
    case Rule::kSlmMisplacedReturn: return "slm-misplaced-return";
    case Rule::kSlmMissingReturn: return "slm-missing-return";
    case Rule::kSlmBreakOutsideLoop: return "slm-break-outside-loop";
    case Rule::kSliceDeadState: return "slice-dead-state";
    case Rule::kSliceDeadInput: return "slice-dead-input";
    case Rule::kSliceDeadLogic: return "slice-dead-logic";
    case Rule::kSliceStuckAtReset: return "slice-stuck-at-reset";
    case Rule::kInvariantStrengthened: return "invariant-strengthened";
    case Rule::kInvariantCandidateStorm: return "invariant-candidate-storm";
    case Rule::kRuleCount_: break;
  }
  DFV_UNREACHABLE("bad drc rule");
}

std::vector<Rule> allRules() {
  std::vector<Rule> out;
  for (unsigned i = 0; i < static_cast<unsigned>(Rule::kRuleCount_); ++i)
    out.push_back(static_cast<Rule>(i));
  return out;
}

const char* severityName(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  DFV_UNREACHABLE("bad severity");
}

const char* layerName(Layer l) {
  switch (l) {
    case Layer::kSlm: return "slm";
    case Layer::kIr: return "ir";
    case Layer::kRtl: return "rtl";
    case Layer::kSec: return "sec";
  }
  DFV_UNREACHABLE("bad layer");
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << severityName(severity) << '[' << ruleName(rule) << "] "
     << layerName(layer) << ' ' << location << ": " << message;
  if (!evidence.empty()) os << " [" << evidence << ']';
  return os.str();
}

void DrcReport::add(Rule rule, Severity severity, Layer layer,
                    std::string location, std::string message,
                    std::string evidence) {
  diags_.push_back(Diagnostic{rule, severity, layer, std::move(location),
                              std::move(message), std::move(evidence)});
}

unsigned DrcReport::count(Severity s) const {
  unsigned n = 0;
  for (const auto& d : diags_) n += d.severity == s;
  return n;
}

bool DrcReport::fired(Rule rule) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::vector<Rule> DrcReport::firedRules() const {
  std::vector<Rule> rules;
  for (const auto& d : diags_)
    if (std::find(rules.begin(), rules.end(), d.rule) == rules.end())
      rules.push_back(d.rule);
  return rules;
}

std::string DrcReport::summary() const {
  std::ostringstream os;
  os << errors() << " error" << (errors() == 1 ? "" : "s") << ", "
     << warnings() << " warning" << (warnings() == 1 ? "" : "s");
  for (const auto& d : diags_) {
    if (d.severity == Severity::kError) {
      os << "; first: " << d.str();
      break;
    }
  }
  return os.str();
}

void DrcReport::merge(const DrcReport& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string DrcReport::toJson() const {
  common::JsonWriter w;
  writeJson(w);
  return w.str();
}

void DrcReport::writeJson(common::JsonWriter& w) const {
  w.beginObject()
      .field("errors", errors())
      .field("warnings", warnings())
      .field("infos", count(Severity::kInfo))
      .field("clean", clean())
      .key("diagnostics")
      .beginArray();
  for (const Diagnostic& d : diags_) {
    w.beginObject()
        .field("rule", ruleName(d.rule))
        .field("severity", severityName(d.severity))
        .field("layer", layerName(d.layer))
        .field("location", d.location)
        .field("message", d.message);
    if (!d.evidence.empty()) w.field("evidence", d.evidence);
    w.endObject();
  }
  w.endArray().endObject();
}

}  // namespace dfv::drc
