// Independent answers for SEC verdicts on the bug-hunt designs.
//
// None of these reuse the SEC engine's own counterexample replay (the IR
// interpreters): a counterexample's RTL stimulus is replayed on
// rtl::Simulator over the netlist that was checked, and the SLM side is
// recomputed from the design's C++ golden model.  Each function returns an
// empty string when the verdict holds and a reason when it does not.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "bitvec/bitvector.h"
#include "rtl/netlist.h"
#include "sec/engine.h"

namespace dfvbench::oracle {

/// The SLM-side value of `check` at the counterexample's failing
/// transaction, computed by a C++ golden model from the transaction values.
using SlmGolden = std::function<std::uint64_t(const dfv::sec::Counterexample&,
                                              const dfv::sec::OutputCheck&)>;

std::uint64_t firGolden(const dfv::sec::Counterexample& cex,
                        const dfv::sec::OutputCheck& check);
std::uint64_t convWindowGolden(const dfv::sec::Counterexample& cex,
                               const dfv::sec::OutputCheck& check);
std::uint64_t truncsumGolden(const dfv::sec::Counterexample& cex,
                             const dfv::sec::OutputCheck& check);

/// Replays the counterexample's RTL stimulus on rtl::Simulator over `rtl`
/// and requires the sampled output to differ from the golden value, and
/// both sides to equal the values the engine reported.
std::string replayOnSimulator(const dfv::rtl::Module& rtl,
                              const dfv::sec::SecProblem& problem,
                              const dfv::sec::Counterexample& cex,
                              const SlmGolden& golden);

/// The fpadd counterexample's operands must make fp::SoftFloat's IEEE sum
/// and fp::hwAdd differ, with the values the engine reported.
std::string fpaddCounterexample(const dfv::sec::Counterexample& cex);

/// Seeded random co-simulation of a proven-equivalent mutant against the
/// golden model: `samples` FIR samples through cosim::WrappedRtl, or
/// `windows` random windows through the conv-window netlist.
std::string firRandomCosim(const dfv::rtl::Module& rtl, std::uint64_t seed,
                           std::size_t samples);
std::string convWindowRandomCosim(const dfv::rtl::Module& rtl,
                                  std::uint64_t seed, std::size_t windows);

}  // namespace dfvbench::oracle
