// Deterministic fault injection for the DFV flow.
//
// A production verification flow must survive the runs that do not finish:
// solver budget exhaustion, contract violations inside a runner, corrupted
// co-simulation data.  Those paths are exactly the ones ordinary tests never
// reach, so this subsystem makes them reachable *on purpose* — the same
// mutation-style methodology bench_drc applies to designs, applied to the
// verification tools themselves.
//
// Instrumented code declares *sites* (a fixed enum: solver entry, SEC phase
// boundaries, scoreboard samples).  A test or bench installs a ScopedInjector
// and arms a site with a Policy; every pass through the site asks the
// injector whether to misbehave this time.  Determinism is the contract:
//   * with no injector installed, every site is a single pointer-load no-op
//     and behavior is bit-identical to an uninstrumented build;
//   * with an injector, firing is a pure function of (seed, site, nth-hit) —
//     the same program run twice injects at exactly the same points.
//
// Layering: fault sits beside common (it depends on nothing but check.h), so
// every lower layer — sat, sec, cosim — may thread sites through.
#pragma once

#include <array>
#include <cstdint>

#include "common/check.h"

namespace dfv::fault {

/// Instrumented locations.  Each value is one *site class*; a site is hit
/// many times per run (once per solve call, per SEC phase, per sample).
enum class Site : unsigned {
  kSolverSolve,        ///< entry of sat::Solver::solve
  kSecBmcPhase,        ///< before each BMC transaction's solves
  kSecInductionPhase,  ///< before the inductive-step solve
  kCosimSample,        ///< each scoreboard observe()
  kJournalAppend,      ///< each core::Journal record append (write path)
  kJournalFsync,       ///< each fsync of the journal's WAL fd
  kJournalCommit,      ///< the atomic-rename header commit
};
inline constexpr unsigned kNumSites = 7;

const char* siteName(Site s);

/// What an armed site does when it fires.  Sites apply the policies that
/// make sense for them (a solver cannot corrupt a sample); an inapplicable
/// policy still counts as an injection but has no behavioral effect, so a
/// full site x policy matrix is always safe to run.
enum class Policy : unsigned {
  kNone,             ///< not armed / did not fire this hit
  kThrowCheckError,  ///< throw dfv::CheckError from the site
  kSpuriousUnknown,  ///< solver-shaped sites report sat::Result::kUnknown
  kExhaustBudget,    ///< budgeted sites report their budget expired early
  kCorruptSample,    ///< cosim sample sites flip the observed value's LSB
  kTornWrite,        ///< journal append writes a truncated frame (crash model)
};
inline constexpr unsigned kNumPolicies = 6;  // including kNone

const char* policyName(Policy p);

/// The site-id -> policy registry.  Construct, arm sites, install via
/// ScopedInjector.  All firing decisions are deterministic in (seed, site,
/// nth-hit); nothing here reads clocks or global RNG state.
class Injector {
 public:
  explicit Injector(std::uint64_t seed = 0) : seed_(seed) {}

  /// Arms `site`: `policy` fires on the `nthHit`-th pass through the site
  /// (1-based) and, when `period` is nonzero, every `period` hits after
  /// that.  `period` 0 fires exactly once.
  void arm(Site site, Policy policy, std::uint64_t nthHit = 1,
           std::uint64_t period = 0);

  /// Arms `site` probabilistically: each pass fires with probability
  /// `probability`, decided by hashing (seed, site, hit-index) — two runs
  /// with the same seed inject at exactly the same hits.
  void armRandom(Site site, Policy policy, double probability);

  void disarm(Site site);

  /// Counts one pass through `site` and returns the policy to apply now
  /// (kNone when unarmed or not firing on this hit).  Called by the
  /// instrumented code, never by users.
  Policy onHit(Site site);

  std::uint64_t hits(Site site) const { return state(site).hits; }
  std::uint64_t injections(Site site) const { return state(site).injections; }
  std::uint64_t totalInjections() const;
  std::uint64_t seed() const { return seed_; }

  /// A copy of this injector's seed and arming with all hit/injection
  /// counters reset to zero — the per-worker clone the parallel executor
  /// installs so each block observes its own fresh (seed, site, hit)
  /// stream regardless of how blocks are scheduled across threads.
  Injector armedCopy() const;

 private:
  struct SiteState {
    Policy policy = Policy::kNone;
    bool probabilistic = false;
    std::uint64_t nthHit = 1;
    std::uint64_t period = 0;
    std::uint64_t probabilityBar = 0;  // fire when mix < bar
    std::uint64_t hits = 0;
    std::uint64_t injections = 0;
  };

  const SiteState& state(Site s) const {
    const auto i = static_cast<unsigned>(s);
    DFV_CHECK_MSG(i < kNumSites, "bad fault site " << i);
    return sites_[i];
  }
  SiteState& state(Site s) {
    return const_cast<SiteState&>(
        static_cast<const Injector*>(this)->state(s));
  }

  std::uint64_t seed_;
  std::array<SiteState, kNumSites> sites_{};
};

/// The current thread's injector, or nullptr when fault injection is off
/// (the default).  The registry is thread_local: each thread of a
/// ParallelExecutor run sees only the injector its current block installed,
/// so counters are never shared across threads and the pure (seed, site,
/// hit) firing contract holds per block with no atomics on the hot path.
/// On a single-threaded run this behaves exactly as the old process-global
/// pointer did.
Injector* currentInjector();

/// RAII installation: sites fire only while a ScopedInjector is alive on
/// the *installing thread*.  Nesting installs the inner one and restores
/// the outer on destruction.  The proto-copy constructor is how parallel
/// block tasks inherit the arming a test or bench configured on the main
/// thread: counters restart at zero, so every block replays the same
/// deterministic injection schedule no matter which worker runs it.
class ScopedInjector {
 public:
  explicit ScopedInjector(std::uint64_t seed = 0);
  /// Installs `proto.armedCopy()` (same seed/arming, fresh counters).
  explicit ScopedInjector(const Injector& proto);
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;
  ~ScopedInjector();

  Injector& injector() { return injector_; }

 private:
  Injector injector_;
  Injector* prev_;
};

/// The hook instrumented code calls: one pointer load when injection is off.
inline Policy onSiteHit(Site s) {
  Injector* inj = currentInjector();
  return inj == nullptr ? Policy::kNone : inj->onHit(s);
}

/// Shorthand for sites whose only applicable reaction is throwing.
[[noreturn]] void throwInjected(Site s);

}  // namespace dfv::fault
