// The histo design pair: a bank of saturating histogram bins.
//
// Four 16-bit bins count 2-bit bin indices, saturating at kHistoCap.  The
// SLM applies one transaction's four samples in a single combinational
// fold; the RTL applies one sample per cycle.  Per-bin equality coupling
// invariants make the induction structural (the CLAUDE.md aliasing
// invariant), and the clamp gives the abstract interpreter real facts to
// prove: every bin stays in [0, kHistoCap], so six of each counter's
// sixteen bits are known zero (the semantic DRC rules and dfv::inv's
// candidate miner read these facts).
#pragma once

#include <memory>

#include "ir/transition_system.h"
#include "rtl/netlist.h"
#include "sec/transaction.h"

namespace dfv::designs {

/// Number of bins (indices are kHistoIdxWidth-bit).
inline constexpr unsigned kHistoBins = 4;
inline constexpr unsigned kHistoIdxWidth = 2;
/// Counter width and the saturation cap (1000 < 2^10, so the top six of
/// each 16-bit counter are provably zero).
inline constexpr unsigned kHistoCountWidth = 16;
inline constexpr unsigned kHistoCap = 1000;
/// Samples per transaction (RTL cycles per transaction).
inline constexpr unsigned kHistoSamples = 4;

/// SLM as a transition system: inputs "s.b0".."s.b3"[2]; states
/// "s.bin0".."s.bin3"[16] updated by a 1-step fold of all four samples;
/// outputs "count0".."count3" expose the current bin values.
ir::TransitionSystem makeHistoSlmTs(ir::Context& ctx);

/// RTL: port b[2]; one saturating increment per cycle; outputs
/// count0..count3 expose the bin registers.
rtl::Module makeHistoRtl();

/// Complete SEC problem: 1-step SLM vs kHistoSamples-cycle RTL with per-bin
/// equality coupling invariants; all four counts checked at cycle 0.
struct HistoSecSetup {
  std::unique_ptr<ir::TransitionSystem> slm;
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<sec::SecProblem> problem;
};
HistoSecSetup makeHistoSecProblem(ir::Context& ctx);

}  // namespace dfv::designs
