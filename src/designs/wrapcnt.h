// The wrapcnt design pair: a modulo-(N+1) tick counter whose two sides
// wrap with different comparison shapes.
//
// The SLM wraps with `count >= N` (defensive system-level style), the RTL
// with `count == N` (the synthesized comparator).  Over reachable states
// the two are identical — the counter never exceeds N — but from an
// arbitrary symbolic start state they diverge (count = N+2 holds on the
// RTL side and wraps on the SLM side), so plain transaction induction
// returns SAT and SEC stays bounded.  The abstract interpreter proves
// count ∈ [0, N] on both sides (N is harvested as a widening threshold, so
// the interval converges exactly), and dfv::inv certifies ule(count, N) as
// inductive; with that fact in the induction hypothesis the comparison
// shapes agree and the induction closes.  This is the calibrated fixture
// for SecOptions::invariants: bounded with strengthening off, proven with
// it on (asserted in tests/sec_test.cpp and measured in
// bench_sec_ablation's inv_matrix).
#pragma once

#include <memory>

#include "ir/transition_system.h"
#include "rtl/netlist.h"
#include "sec/transaction.h"

namespace dfv::designs {

/// Counter width and wrap point: counts 0..kWrapcntMax then wraps to 0.
/// kWrapcntMax < 2^4 also gives the known-bits domain four provably-zero
/// top bits, a second certifiable candidate.
inline constexpr unsigned kWrapcntWidth = 8;
inline constexpr unsigned kWrapcntMax = 10;

/// SLM as a transition system: input "s.tick"[1]; state "s.cnt"[8] wraps
/// on `cnt >= kWrapcntMax`; output "count" exposes the counter.
ir::TransitionSystem makeWrapcntSlmTs(ir::Context& ctx);

/// RTL: port tick[1]; the register wraps on `cnt == kWrapcntMax`; output
/// "count" exposes the register.
rtl::Module makeWrapcntRtl();

/// Complete SEC problem: 1-cycle SLM vs 1-cycle RTL, shared "tick"
/// transaction variable, counter equality coupling invariant, "count"
/// checked at cycle 0.
struct WrapcntSecSetup {
  std::unique_ptr<ir::TransitionSystem> slm;
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<sec::SecProblem> problem;
};
WrapcntSecSetup makeWrapcntSecProblem(ir::Context& ctx);

}  // namespace dfv::designs
