#include "core/resilient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "core/journal.h"
#include "fault/fault.h"
#include "ir/eval.h"
#include "ir/transition_system.h"
#include "workload/workload.h"

namespace dfv::core {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Scales each finite cap; an unlimited (zero) cap stays unlimited, and a
/// finite cap always strictly grows so the ladder makes progress even for
/// tiny bases.
sat::Budget scaledBudget(const sat::Budget& base, double scale) {
  base.validate();  // a negative base cap must fail loudly, not scale
  sat::Budget b = base;
  auto grow = [scale](std::int64_t cap) -> std::int64_t {
    if (cap == 0) return 0;
    const double scaled = static_cast<double>(cap) * scale;
    return std::max(cap + 1, static_cast<std::int64_t>(scaled));
  };
  b.maxConflicts = grow(base.maxConflicts);
  b.maxPropagations = grow(base.maxPropagations);
  if (base.maxSeconds > 0.0) b.maxSeconds = base.maxSeconds * scale;
  return b;
}

/// A fresh attempt row for `rung` under options `o`, recording the caps in
/// force: per kind, the larger *finite* one of the two phase budgets (zero
/// means both phases are unlimited).
AttemptRecord attemptRow(unsigned rung, const sec::SecOptions& o) {
  auto cap = [](std::int64_t bmc, std::int64_t induction) {
    if (bmc == 0) return induction;
    if (induction == 0) return bmc;
    return std::max(bmc, induction);
  };
  AttemptRecord rec;
  rec.rung = rung;
  rec.maxConflicts =
      cap(o.bmcBudget.maxConflicts, o.inductionBudget.maxConflicts);
  rec.maxPropagations =
      cap(o.bmcBudget.maxPropagations, o.inductionBudget.maxPropagations);
  return rec;
}

/// Options for the attempt-th try (0 = base).  Rung toggles accumulate:
/// each climbed rung may override fraig/invariants, last write wins.
sec::SecOptions attemptOptions(const sec::SecOptions& base, unsigned attempt,
                               const RetryPolicy& policy) {
  sec::SecOptions opts = base;
  if (attempt == 0) return opts;
  double cumulative = 1.0;
  for (unsigned i = 1; i <= attempt; ++i) {
    RetryRung rung;
    if (policy.rungs.empty()) {
      rung.budgetScale = policy.budgetScale;
    } else {
      const std::size_t idx =
          std::min<std::size_t>(i - 1, policy.rungs.size() - 1);
      rung = policy.rungs[idx];
    }
    cumulative *= rung.budgetScale;
    if (rung.fraig.has_value()) opts.fraig = *rung.fraig;
    if (rung.invariants.has_value()) opts.invariants = *rung.invariants;
  }
  opts.bmcBudget = scaledBudget(base.bmcBudget, cumulative);
  opts.inductionBudget = scaledBudget(base.inductionBudget, cumulative);
  return opts;
}

/// Runs one cosim attempt — a cosim block's runner or a SEC block's
/// degradation fallback — into `r`, isolating a throw as a fault.
void runCosimAttempt(const ResilientRunner::CosimRunner& runner,
                     std::uint64_t seed, const std::string& detailPrefix,
                     BlockResult& r) {
  AttemptRecord rec;
  rec.rung = r.attempts;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const ResilientRunner::CosimOutcome out = runner(seed);
    r.passed = out.passed;
    r.detail = detailPrefix + out.detail;
    rec.outcome = out.passed ? "cosim-pass" : "cosim-fail";
  } catch (const std::exception& ex) {
    r.faulted = true;
    r.passed = false;
    r.detail = std::string("faulted: ") + ex.what();
    rec.outcome = r.detail;
    rec.faulted = true;
  }
  rec.seconds = secondsSince(t0);
  r.attemptLog.push_back(std::move(rec));
  ++r.attempts;
}

}  // namespace

ResilientRunner::Entry& ResilientRunner::addEntry(const std::string& block,
                                                  std::uint64_t digest,
                                                  Method method) {
  DFV_CHECK_MSG(lookup(block) == nullptr, "duplicate block '" << block << "'");
  Entry& e = blocks_.emplace_back();
  e.block = block;
  e.method = method;
  e.digest = digest;
  return e;
}

void ResilientRunner::addSecBlock(const std::string& block,
                                  std::uint64_t digest,
                                  sec::SecOptions baseOptions,
                                  SecRunner runner) {
  DFV_CHECK_MSG(runner != nullptr, "null runner");
  Entry& e = addEntry(block, digest, Method::kSec);
  e.baseOptions = std::move(baseOptions);
  e.secRunner = std::move(runner);
}

void ResilientRunner::addCosimBlock(const std::string& block,
                                    std::uint64_t digest, CosimRunner runner) {
  DFV_CHECK_MSG(runner != nullptr, "null runner");
  addEntry(block, digest, Method::kCosim).cosimRunner = std::move(runner);
}

ResilientRunner::Entry* ResilientRunner::lookup(const std::string& block) {
  for (Entry& e : blocks_)
    if (e.block == block) return &e;
  return nullptr;
}

ResilientRunner::Entry& ResilientRunner::find(const std::string& block) {
  Entry* e = lookup(block);
  DFV_CHECK_MSG(e != nullptr, "no block named '" << block << "'");
  return *e;
}

void ResilientRunner::setCosimFallback(const std::string& block,
                                       CosimRunner fallback) {
  DFV_CHECK_MSG(fallback != nullptr, "null fallback");
  Entry& e = find(block);
  DFV_CHECK_MSG(e.method == Method::kSec,
                "cosim fallback only applies to SEC blocks");
  e.cosimRunner = std::move(fallback);
}

void ResilientRunner::touch(const std::string& block,
                            std::uint64_t newDigest) {
  find(block).digest = newDigest;
}

void ResilientRunner::setBlockDrc(const std::string& block,
                                  std::function<drc::DrcReport()> runner) {
  DFV_CHECK_MSG(runner != nullptr, "null DRC runner");
  find(block).drcRunner = std::move(runner);
}

bool ResilientRunner::drcBlocks(const Entry& e, BlockResult& r) const {
  if (!e.drcRunner || drcPolicy_ == DrcPolicy::kOff) return false;
  try {
    r.drc = e.drcRunner();
  } catch (const std::exception& ex) {
    r.faulted = true;
    r.detail = std::string("faulted: DRC: ") + ex.what();
    return true;
  }
  // A blocked pair is not verifiable as written: running the prover would
  // waste time or, worse, pass vacuously — and no ladder rung or cosim
  // fallback changes that, so the block fails before attempt 0.
  r.blockedByDrc =
      (drcPolicy_ == DrcPolicy::kBlock && r.drc->errors() > 0) ||
      (drcPolicy_ == DrcPolicy::kStrict && !r.drc->clean());
  if (r.blockedByDrc) r.detail = "blocked by DRC: " + r.drc->summary();
  return r.blockedByDrc;
}

BlockResult ResilientRunner::runEntry(Entry& e) {
  BlockResult r;
  r.block = e.block;
  r.method = e.method;
  r.attempts = 0;
  const auto start = std::chrono::steady_clock::now();
  const fault::Injector* inj = fault::currentInjector();
  const std::uint64_t injectionsBefore =
      inj != nullptr ? inj->totalInjections() : 0;
  auto injections = [&] {
    return (inj != nullptr ? inj->totalInjections() : 0) - injectionsBefore;
  };

  if (drcBlocks(e, r)) {
    // Nothing ran: attempts stays 0 and the block is neither retried nor
    // degraded.
  } else if (e.method == Method::kCosim) {
    runCosimAttempt(e.cosimRunner, policy_.cosimSeed, "", r);
  } else {
    const unsigned maxAttempts = std::max(1u, policy_.maxAttempts);
    for (unsigned attempt = 0; attempt < maxAttempts; ++attempt) {
      const sec::SecOptions opts =
          attemptOptions(e.baseOptions, attempt, policy_);
      bool inductionCutOff = false;
      AttemptRecord rec = attemptRow(attempt, opts);
      const auto t0 = std::chrono::steady_clock::now();
      try {
        const sec::SecResult sr = e.secRunner(opts);
        r.inconclusive = sr.verdict == sec::Verdict::kInconclusive;
        r.passed = sr.verdict == sec::Verdict::kProvenEquivalent ||
                   sr.verdict == sec::Verdict::kBoundedEquivalent;
        r.detail = sec::verdictName(sr.verdict);
        if (sr.cex.has_value()) r.detail += ": " + sr.cex->summary();
        inductionCutOff = sr.verdict == sec::Verdict::kBoundedEquivalent &&
                          sr.stats.induction.budgetExhausted;
        r.counters = sec::deterministicCounters(sr.stats);
        rec.outcome = sec::verdictName(sr.verdict);
        rec.counters = r.counters;
      } catch (const std::exception& ex) {
        r.faulted = true;
        r.passed = false;
        r.inconclusive = false;
        r.detail = std::string("faulted: ") + ex.what();
        rec.outcome = r.detail;
        rec.faulted = true;
      }
      rec.seconds = secondsSince(t0);
      r.attemptLog.push_back(std::move(rec));
      r.attempts = attempt + 1;
      // Exceptions abort the ladder — a crash will not get better with a
      // bigger budget.  kInconclusive always earns another rung; a bounded
      // verdict whose induction was cut off optionally climbs too, chasing
      // the upgrade to proven (it is a sound pass even if it never comes).
      if (r.faulted) break;
      if (r.inconclusive) continue;
      if (inductionCutOff && policy_.retryInductionCutoff) continue;
      break;
    }
    if (r.inconclusive && e.cosimRunner != nullptr) {
      r.inconclusive = false;
      runCosimAttempt(e.cosimRunner, policy_.cosimSeed,
                      "degraded to cosim: ", r);
      r.degraded = !r.faulted;
    }
  }

  r.seconds = secondsSince(start);
  r.faultInjections = injections();
  // Only a clean, full-strength pass is cacheable.  A degraded pass is
  // weaker evidence and a faulted run is no evidence: both must rerun on
  // the next incremental pass even with an unchanged digest.  The same
  // predicate admits journal records on resume — one function, so the two
  // policies cannot drift apart.
  if (isResumableVerdict(r)) {
    e.lastCleanDigest = e.digest;
    e.lastDetail = r.detail;
  } else {
    e.lastCleanDigest.reset();
  }
  if (journal_ != nullptr) {
    // The record carries the pre-append injection count; firings at the
    // journal sites themselves are folded into the in-memory result below
    // so the report's attribution still covers every firing.
    journalAppend(e, r);
    r.faultInjections = injections();
  }
  return r;
}

std::uint64_t ResilientRunner::entryFingerprint(const Entry& e) const {
  const bool hasDrc = e.drcRunner != nullptr;
  if (e.method == Method::kCosim)
    return cosimBlockFingerprint(e.block, e.digest, policy_.cosimSeed,
                                 drcPolicy_, hasDrc);
  return secBlockFingerprint(e.block, e.digest, e.baseOptions, policy_,
                             drcPolicy_, hasDrc);
}

void ResilientRunner::journalAppend(const Entry& e, const BlockResult& r) {
  if (journal_ == nullptr) return;
  JournalRecord rec;
  rec.digest = e.digest;
  rec.fingerprint = entryFingerprint(e);
  rec.hasDrc = r.drc.has_value();
  rec.result = r;
  try {
    journal_->append(rec);
  } catch (const std::exception&) {
    // Journal I/O failure loses durability, never a verdict: the run
    // continues unjournaled.
  }
}

unsigned ResilientRunner::resumePlan(const JournalLoaded& loaded) {
  if (loaded.planName != name_) return 0;
  unsigned admitted = 0;
  for (const JournalRecord& rec : loaded.records) {
    Entry* e = lookup(rec.result.block);
    // Unknown block or digest/fingerprint mismatch: the journal describes
    // a different plan from this record on — cold-start from here.
    if (e == nullptr || rec.digest != e->digest ||
        rec.fingerprint != entryFingerprint(*e))
      break;
    // Non-resumable rows (inconclusive, faulted, degraded, DRC-carrying)
    // re-run their own block only; later records stay admissible.
    if (!isResumableVerdict(rec.result) || rec.hasDrc ||
        rec.result.drc.has_value())
      continue;
    e->resumedResult = rec.result;
    e->resumedResult->resumed = true;
    ++admitted;
  }
  return admitted;
}

PlanReport ResilientRunner::runAll() { return run(/*incremental=*/false); }

PlanReport ResilientRunner::runIncremental() {
  return run(/*incremental=*/true);
}

PlanReport ResilientRunner::run(bool incremental) {
  const auto start = std::chrono::steady_clock::now();
  PlanReport report;
  // Skip decisions read only each entry's own cached digest, and a run
  // mutates only its own entry's cache, so deciding every skip up front is
  // equivalent to the interleaved serial order — and it keeps the parallel
  // path from racing on the cache.
  std::vector<BlockResult> results(blocks_.size());
  std::vector<std::size_t> pending;  // blocks neither resumed nor skipped
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    Entry& e = blocks_[i];
    BlockResult& r = results[i];
    if (e.resumedResult.has_value()) {
      // Journal-admitted: emit the recorded result (resumed=true set at
      // admission), seed the incremental cache exactly as the recorded
      // clean run did, and re-journal it so the fresh WAL covers this run.
      r = std::move(*e.resumedResult);
      e.resumedResult.reset();
      e.lastCleanDigest = e.digest;
      e.lastDetail = r.detail;
      journalAppend(e, r);
    } else if (incremental && e.lastCleanDigest.has_value() &&
               *e.lastCleanDigest == e.digest) {
      r.block = e.block;
      r.method = e.method;
      r.passed = true;
      r.skippedUnchanged = true;
      r.attempts = 0;
      r.detail = "unchanged (" + e.lastDetail + ")";
    } else {
      pending.push_back(i);
    }
  }
  if (exec_ == nullptr) {
    for (std::size_t i : pending) results[i] = runEntry(blocks_[i]);
  } else {
    // Each block clones the calling thread's injector, so a block's
    // (seed, site, hit) stream is its own no matter which thread runs it —
    // two parallel runs inject identically, though differently from a
    // serial run's single shared stream (see fault/fault.h).
    const fault::Injector* proto = fault::currentInjector();
    report.workers = exec_->forEach(pending.size(), [&](std::size_t k) {
      std::optional<fault::ScopedInjector> si;
      if (proto != nullptr) si.emplace(*proto);
      results[pending[k]] = runEntry(blocks_[pending[k]]);
    });
  }
  for (const BlockResult& r : results) report.tally(r);
  report.blocks = std::move(results);
  report.totalSeconds = secondsSince(start);
  return report;
}

// ----- makeRandomCosimFallback ----------------------------------------------

namespace {

ir::Value randomValue(workload::Rng& rng, const ir::Type& t) {
  if (!t.isArray()) return ir::Value(workload::randomBits(rng, t.width));
  std::vector<bv::BitVector> elems;
  elems.reserve(t.depth);
  for (unsigned i = 0; i < t.depth; ++i)
    elems.push_back(workload::randomBits(rng, t.width));
  return ir::Value::makeArray(std::move(elems));
}

std::size_t outputIndex(const ir::TransitionSystem& ts,
                        const std::string& name) {
  const auto& outs = ts.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i)
    if (outs[i].name == name) return i;
  DFV_CHECK_MSG(false, "no output '" << name << "'");
  return 0;
}

std::string valueToString(const ir::Value& v) {
  return v.isArray ? std::string("<array>") : v.scalar.toString(16);
}

}  // namespace

ResilientRunner::CosimRunner makeRandomCosimFallback(
    const sec::SecProblem& problem, unsigned transactions) {
  DFV_CHECK_MSG(transactions >= 1, "need at least one transaction");
  DFV_CHECK_MSG(!problem.checks().empty(), "problem has no output checks");
  return [&problem,
          transactions](std::uint64_t seed) -> ResilientRunner::CosimOutcome {
    workload::Rng rng(seed);
    const ir::TransitionSystem& slm = problem.side(sec::Side::kSlm);
    const ir::TransitionSystem& rtl = problem.side(sec::Side::kRtl);
    // Resolve the check sample points once (names were validated when the
    // checks were added).
    struct ResolvedCheck {
      const sec::OutputCheck* check;
      std::size_t slmIdx;
      std::size_t rtlIdx;
    };
    std::vector<ResolvedCheck> checks;
    checks.reserve(problem.checks().size());
    for (const sec::OutputCheck& c : problem.checks())
      checks.push_back(ResolvedCheck{&c, outputIndex(slm, c.slmOutput),
                                     outputIndex(rtl, c.rtlOutput)});
    // Resolve each input binding once: per side, per cycle, per input, the
    // bound expression or null (a free input).
    auto resolveBindings = [&](sec::Side side, const ir::TransitionSystem& ts) {
      std::vector<std::vector<ir::NodeRef>> bound(
          problem.cycles(side),
          std::vector<ir::NodeRef>(ts.inputs().size(), nullptr));
      for (const sec::InputBinding& b : problem.bindings()) {
        if (b.side != side || b.cycle >= bound.size()) continue;
        const auto& ins = ts.inputs();
        const auto it = std::find(ins.begin(), ins.end(), b.input);
        if (it == ins.end()) continue;
        ir::NodeRef& slot = bound[b.cycle][static_cast<std::size_t>(
            it - ins.begin())];
        if (slot == nullptr) slot = b.value;
      }
      return bound;
    };
    const auto slmBound = resolveBindings(sec::Side::kSlm, slm);
    const auto rtlBound = resolveBindings(sec::Side::kRtl, rtl);
    ir::TsSimulator slmSim(slm);
    ir::TsSimulator rtlSim(rtl);
    slmSim.reset();
    rtlSim.reset();
    for (unsigned txn = 0; txn < transactions; ++txn) {
      // Sample transaction variables until every input constraint holds —
      // the SLM/RTL may legitimately differ outside the constrained space.
      // One evaluator per try serves its constraints and, once admitted,
      // the transaction's bindings.
      ir::Env env;
      std::optional<ir::Evaluator> eval;
      bool admissible = false;
      constexpr unsigned kMaxTries = 1000;
      for (unsigned tries = 0; tries < kMaxTries && !admissible; ++tries) {
        env.clear();
        for (ir::NodeRef v : problem.txnVars())
          env[v] = randomValue(rng, v->type());
        eval.emplace(env);
        admissible = true;
        for (ir::NodeRef c : problem.constraints())
          if (!eval->eval(c).scalar.bit(0)) {
            admissible = false;
            break;
          }
      }
      if (!admissible) {
        std::ostringstream os;
        os << "cosim fallback: no admissible stimulus after " << kMaxTries
           << " samples at transaction " << txn << " (seed " << seed << ")";
        return {false, os.str()};
      }
      // Drive one transaction on each side: bound inputs evaluate their
      // binding under the sampled transaction variables, unbound input
      // cycles get fresh random values (SEC leaves them universally
      // quantified; random is the simulation analogue).
      auto runSide = [&](const std::vector<std::vector<ir::NodeRef>>& bound,
                         const ir::TransitionSystem& ts, ir::TsSimulator& sim) {
        std::vector<ir::TsSimulator::StepResult> steps;
        steps.reserve(bound.size());
        for (const std::vector<ir::NodeRef>& cycleBound : bound) {
          std::vector<ir::Value> ins;
          ins.reserve(ts.inputs().size());
          for (std::size_t i = 0; i < ts.inputs().size(); ++i)
            ins.push_back(cycleBound[i] != nullptr
                              ? eval->eval(cycleBound[i])
                              : randomValue(rng, ts.inputs()[i]->type()));
          steps.push_back(sim.step(ins));
        }
        return steps;
      };
      const auto slmSteps = runSide(slmBound, slm, slmSim);
      const auto rtlSteps = runSide(rtlBound, rtl, rtlSim);
      for (const ResolvedCheck& rc : checks) {
        const auto& ss = slmSteps[rc.check->slmCycle];
        const auto& rs = rtlSteps[rc.check->rtlCycle];
        const bool slmValid = ss.outputValid[rc.slmIdx];
        const bool rtlValid = rs.outputValid[rc.rtlIdx];
        if (slmValid != rtlValid) {
          std::ostringstream os;
          os << "cosim fallback: valid mismatch at transaction " << txn
             << " (" << rc.check->slmOutput << " valid=" << slmValid << ", "
             << rc.check->rtlOutput << " valid=" << rtlValid << ", seed "
             << seed << ")";
          return {false, os.str()};
        }
        if (!slmValid) continue;  // both sides agree: no data this cycle
        const ir::Value& sv = ss.outputs[rc.slmIdx];
        const ir::Value& rv = rs.outputs[rc.rtlIdx];
        if (!(sv == rv)) {
          std::ostringstream os;
          os << "cosim fallback: mismatch at transaction " << txn << ": "
             << rc.check->slmOutput << "=" << valueToString(sv) << " vs "
             << rc.check->rtlOutput << "=" << valueToString(rv) << " (seed "
             << seed << ")";
          return {false, os.str()};
        }
      }
    }
    std::ostringstream os;
    os << transactions << " random transactions matched (seed " << seed
       << ")";
    return {true, os.str()};
  };
}

}  // namespace dfv::core
